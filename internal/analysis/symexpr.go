// Package analysis implements the global UDT classification of the Deca
// paper (§3.3, Algorithms 2-4) and the phased refinement of §3.4.
//
// Deca extracts program facts with the Soot bytecode framework; here the
// facts are represented explicitly: a Program holds methods, a call graph,
// field-assignment sites and array-allocation sites whose length values are
// symbolic expressions produced by copy/constant propagation (Figure 4).
// The classification algorithms themselves follow the paper verbatim.
package analysis

import (
	"fmt"
	"sort"
	"strings"
)

// SymExpr is a linear symbolic expression c + Σ kᵢ·Symbolᵢ, the result of
// the symbolized constant propagation of Figure 4. Values that enter the
// analysis scope from outside (input parameters, I/O results) become
// symbols; arithmetic on them stays in linear form, which is enough to
// decide the equivalences the fixed-length analysis needs (e.g.
// b = 2 + a - 1 and c = a + 1 are both Symbol(a)+1).
type SymExpr struct {
	Const int64
	Terms map[string]int64 // symbol name → coefficient; no zero entries
}

// Const returns a constant expression.
func Const(c int64) SymExpr { return SymExpr{Const: c} }

// Sym returns the expression consisting of a single symbol.
func Sym(name string) SymExpr {
	return SymExpr{Terms: map[string]int64{name: 1}}
}

func (e SymExpr) clone() SymExpr {
	t := make(map[string]int64, len(e.Terms))
	for k, v := range e.Terms {
		t[k] = v
	}
	return SymExpr{Const: e.Const, Terms: t}
}

// Add returns e + o.
func (e SymExpr) Add(o SymExpr) SymExpr {
	r := e.clone()
	r.Const += o.Const
	for k, v := range o.Terms {
		r.Terms[k] += v
		if r.Terms[k] == 0 {
			delete(r.Terms, k)
		}
	}
	return r
}

// AddConst returns e + c.
func (e SymExpr) AddConst(c int64) SymExpr {
	r := e.clone()
	r.Const += c
	return r
}

// MulConst returns k·e.
func (e SymExpr) MulConst(k int64) SymExpr {
	if k == 0 {
		return Const(0)
	}
	r := e.clone()
	r.Const *= k
	for key := range r.Terms {
		r.Terms[key] *= k
	}
	return r
}

// Equal reports whether two expressions are syntactically equivalent in
// normal form, i.e. provably equal under any symbol valuation.
func (e SymExpr) Equal(o SymExpr) bool {
	if e.Const != o.Const || len(e.Terms) != len(o.Terms) {
		return false
	}
	for k, v := range e.Terms {
		if o.Terms[k] != v {
			return false
		}
	}
	return true
}

// Eval resolves the expression under a symbol binding. Missing symbols
// yield an error.
func (e SymExpr) Eval(binding map[string]int64) (int64, error) {
	v := e.Const
	for name, k := range e.Terms {
		b, ok := binding[name]
		if !ok {
			return 0, fmt.Errorf("analysis: unbound symbol %q", name)
		}
		v += k * b
	}
	return v, nil
}

// String renders the expression deterministically, e.g. "Symbol(a)+1".
func (e SymExpr) String() string {
	names := make([]string, 0, len(e.Terms))
	for n := range e.Terms {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		k := e.Terms[n]
		if b.Len() > 0 && k >= 0 {
			b.WriteByte('+')
		}
		switch k {
		case 1:
			fmt.Fprintf(&b, "Symbol(%s)", n)
		case -1:
			fmt.Fprintf(&b, "-Symbol(%s)", n)
		default:
			fmt.Fprintf(&b, "%d*Symbol(%s)", k, n)
		}
	}
	if e.Const != 0 || b.Len() == 0 {
		if b.Len() > 0 && e.Const >= 0 {
			b.WriteByte('+')
		}
		fmt.Fprintf(&b, "%d", e.Const)
	}
	return b.String()
}
