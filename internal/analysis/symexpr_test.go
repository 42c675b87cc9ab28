package analysis

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestFigure4Propagation reproduces the paper's Figure 4: after symbolized
// constant propagation, b = 2 + a - 1 and c = a + 1 are both Symbol(a)+1,
// so the two allocation sites of `array` have equivalent lengths.
func TestFigure4Propagation(t *testing.T) {
	a := Sym("1") // a = input.readString().toInt() == Symbol(1)
	b := Const(2).Add(a).AddConst(-1)
	c := a.AddConst(1)
	if !b.Equal(c) {
		t.Errorf("b=%s and c=%s should be equivalent", b, c)
	}
	if b.String() != "Symbol(1)+1" {
		t.Errorf("b.String() = %q, want %q", b.String(), "Symbol(1)+1")
	}
}

func TestSymExprArithmetic(t *testing.T) {
	x, y := Sym("x"), Sym("y")
	e := x.MulConst(3).Add(y).AddConst(7).Add(x.MulConst(-1)) // 2x + y + 7
	if got := e.String(); got != "2*Symbol(x)+Symbol(y)+7" {
		t.Errorf("e.String() = %q", got)
	}
	v, err := e.Eval(map[string]int64{"x": 5, "y": 1})
	if err != nil {
		t.Fatal(err)
	}
	if v != 18 {
		t.Errorf("Eval = %d, want 18", v)
	}
	if _, err := e.Eval(map[string]int64{"x": 5}); err == nil {
		t.Error("Eval with unbound symbol should fail")
	}
}

func TestSymExprCancellation(t *testing.T) {
	x := Sym("x")
	zero := x.Add(x.MulConst(-1))
	if !zero.Equal(Const(0)) {
		t.Errorf("x-x = %s, want constant 0", zero)
	}
	if zero.String() != "0" {
		t.Errorf("(x-x).String() = %q, want 0", zero.String())
	}
}

func TestSymExprMulZero(t *testing.T) {
	e := Sym("x").AddConst(4).MulConst(0)
	if !e.Equal(Const(0)) {
		t.Errorf("0*(x+4) = %s, want 0", e)
	}
}

func TestSymExprNegString(t *testing.T) {
	e := Sym("n").MulConst(-1).AddConst(-2)
	if got := e.String(); got != "-Symbol(n)-2" {
		t.Errorf("String() = %q", got)
	}
}

// Property: Equal is consistent with evaluation — equal expressions
// evaluate identically under random bindings, and arithmetic identities
// hold ((a+b)-b == a).
func TestSymExprProperties(t *testing.T) {
	syms := []string{"p", "q", "r"}
	randExpr := func(r *rand.Rand) SymExpr {
		e := Const(r.Int63n(20) - 10)
		for _, s := range syms {
			if r.Intn(2) == 0 {
				e = e.Add(Sym(s).MulConst(r.Int63n(9) - 4))
			}
		}
		return e
	}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randExpr(r), randExpr(r)
		if !a.Add(b).Add(b.MulConst(-1)).Equal(a) {
			return false
		}
		binding := map[string]int64{}
		for _, s := range syms {
			binding[s] = r.Int63n(100) - 50
		}
		va, _ := a.Eval(binding)
		vb, _ := b.Eval(binding)
		sum, _ := a.Add(b).Eval(binding)
		return sum == va+vb
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
