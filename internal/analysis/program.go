package analysis

import (
	"fmt"
	"sort"
)

// FieldRef names a field as (owner type, field name). The zero value is
// used for array allocations bound to local variables or container slots
// rather than an object field.
type FieldRef struct {
	Owner string
	Field string
}

func (r FieldRef) String() string {
	if r.Owner == "" && r.Field == "" {
		return "<local>"
	}
	return r.Owner + "." + r.Field
}

// IsZero reports whether the reference is the anonymous local slot.
func (r FieldRef) IsZero() bool { return r.Owner == "" && r.Field == "" }

// Assign records field-assignment statements inside one method: Count
// assignments to Field per invocation of the method.
type Assign struct {
	Field FieldRef
	Count int
}

// ArrayAlloc records an allocation site: a new array of ArrayType whose
// length evaluates to the symbolic expression Length, assigned to Field
// (possibly through a constructor parameter chain, which Deca's
// copy-propagation resolves before recording the site).
type ArrayAlloc struct {
	Field     FieldRef
	ArrayType string
	Length    SymExpr
}

// Method is a node of the call graph together with the program facts the
// classifier consumes.
type Method struct {
	Name    string
	CtorOf  string // non-empty when the method is a constructor of that type
	calls   []string
	assigns []Assign
	allocs  []ArrayAlloc
}

// Call adds an outgoing call-graph edge.
func (m *Method) Call(callees ...string) *Method {
	m.calls = append(m.calls, callees...)
	return m
}

// AssignField records count assignments to ref per invocation.
func (m *Method) AssignField(ref FieldRef, count int) *Method {
	m.assigns = append(m.assigns, Assign{Field: ref, Count: count})
	return m
}

// AllocArray records an array allocation site.
func (m *Method) AllocArray(arrayType string, ref FieldRef, length SymExpr) *Method {
	m.allocs = append(m.allocs, ArrayAlloc{Field: ref, ArrayType: arrayType, Length: length})
	return m
}

// Program is the analysis-time model of the user program: a set of methods
// with call edges and recorded facts. It corresponds to the per-stage call
// graphs Deca builds with Soot in its pre-processing phase (§5).
type Program struct {
	methods map[string]*Method
}

// NewProgram returns an empty program model.
func NewProgram() *Program {
	return &Program{methods: make(map[string]*Method)}
}

// AddMethod registers (or returns the existing) method with the given name.
func (p *Program) AddMethod(name string) *Method {
	if m, ok := p.methods[name]; ok {
		return m
	}
	m := &Method{Name: name}
	p.methods[name] = m
	return m
}

// AddCtor registers a constructor method of the given owner type.
func (p *Program) AddCtor(name, owner string) *Method {
	m := p.AddMethod(name)
	m.CtorOf = owner
	return m
}

// MethodNames returns all method names, sorted (for deterministic output).
func (p *Program) MethodNames() []string {
	names := make([]string, 0, len(p.methods))
	for n := range p.methods {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Scope computes the analysis scope reachable from the given entry methods:
// the sub-call-graph Deca builds per job stage (or per phase, for the
// phased refinement of §3.4). Unknown entries are an error so typos in
// phase definitions surface early.
func (p *Program) Scope(entries ...string) (*Scope, error) {
	s := &Scope{prog: p, reachable: make(map[string]*Method)}
	var visit func(string) error
	visit = func(name string) error {
		if _, ok := s.reachable[name]; ok {
			return nil
		}
		m := p.methods[name]
		if m == nil {
			return fmt.Errorf("analysis: unknown method %q in scope entry set", name)
		}
		s.reachable[name] = m
		for _, callee := range m.calls {
			if err := visit(callee); err != nil {
				return err
			}
		}
		return nil
	}
	for _, e := range entries {
		if err := visit(e); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// MustScope is Scope that panics on unknown entries, for tests and
// hand-built models.
func (p *Program) MustScope(entries ...string) *Scope {
	s, err := p.Scope(entries...)
	if err != nil {
		panic(err)
	}
	return s
}

// Scope is the set of methods reachable from a stage's (or phase's) entry
// points, with the fact-query helpers the classifier needs.
type Scope struct {
	prog      *Program
	reachable map[string]*Method
}

// InitOnly implements the §3.3 rules for init-only fields:
//  1. a final field is init-only;
//  2. an array element field is never init-only (callers handle this case —
//     element pseudo-fields are not passed here);
//  3. otherwise the field must not be assigned in any in-scope method other
//     than constructors of its owner, and must be assigned at most once in
//     any constructor calling sequence.
func (s *Scope) InitOnly(ref FieldRef, final bool) bool {
	if final {
		return true
	}
	// Rule 3a: no assignments outside the owner's constructors.
	for _, m := range s.reachable {
		if m.CtorOf == ref.Owner {
			continue
		}
		for _, a := range m.assigns {
			if a.Field == ref && a.Count > 0 {
				return false
			}
		}
	}
	// Rule 3b: at most one assignment along any constructor calling
	// sequence (constructors of the owner may delegate to each other).
	for _, m := range s.reachable {
		if m.CtorOf != ref.Owner {
			continue
		}
		if s.maxCtorAssigns(m, ref, make(map[string]bool)) > 1 {
			return false
		}
	}
	return true
}

// maxCtorAssigns returns the maximum number of assignments to ref along any
// constructor-call path starting at ctor. Delegation cycles count as
// unbounded (returns 2, enough to fail the at-most-once check).
func (s *Scope) maxCtorAssigns(ctor *Method, ref FieldRef, onPath map[string]bool) int {
	if onPath[ctor.Name] {
		return 2
	}
	onPath[ctor.Name] = true
	defer delete(onPath, ctor.Name)

	own := 0
	for _, a := range ctor.assigns {
		if a.Field == ref {
			own += a.Count
		}
	}
	maxCallee := 0
	for _, calleeName := range ctor.calls {
		callee, ok := s.reachable[calleeName]
		if !ok || callee.CtorOf != ctor.CtorOf {
			continue
		}
		if n := s.maxCtorAssigns(callee, ref, onPath); n > maxCallee {
			maxCallee = n
		}
	}
	return own + maxCallee
}

// FixedLength implements the §3.3 fixed-length array detection: arrayType
// is fixed-length w.r.t. ref when the scope contains at least one
// allocation site of arrayType assigned to ref and the symbolic lengths at
// all such sites are equivalent. When ref is the zero FieldRef the check
// spans every allocation of arrayType in scope (used for top-level arrays
// that are written straight into a container).
func (s *Scope) FixedLength(arrayType string, ref FieldRef) bool {
	var first *SymExpr
	for _, m := range s.reachable {
		for _, al := range m.allocs {
			if al.ArrayType != arrayType {
				continue
			}
			if !ref.IsZero() && al.Field != ref {
				continue
			}
			if first == nil {
				l := al.Length
				first = &l
				continue
			}
			if !first.Equal(al.Length) {
				return false
			}
		}
	}
	return first != nil
}

// FixedLengthValue returns the common symbolic length when FixedLength
// holds, for layout compilation.
func (s *Scope) FixedLengthValue(arrayType string, ref FieldRef) (SymExpr, bool) {
	if !s.FixedLength(arrayType, ref) {
		return SymExpr{}, false
	}
	for _, m := range s.reachable {
		for _, al := range m.allocs {
			if al.ArrayType != arrayType {
				continue
			}
			if !ref.IsZero() && al.Field != ref {
				continue
			}
			return al.Length, true
		}
	}
	return SymExpr{}, false
}
