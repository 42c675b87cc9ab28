package core

import (
	"fmt"

	"deca/internal/analysis"
	"deca/internal/udt"
)

// Layout compilation: the runtime half of Deca's hybrid optimization
// (Appendix A). The static analyzer leaves array lengths symbolic (e.g.
// the feature dimension Symbol(D)); at submission Deca's driver binds the
// concrete values and compiles the byte layouts the transformed code uses,
// so only submitted jobs get layouts (no path explosion). Here no job is
// submitted through this path: cmd/deca-analyze binds D and prints each
// plan's layouts, and tests hold the hand-written codecs to them.

// Bindings resolves analysis symbols to concrete values at submission
// time (Symbol name → value).
type Bindings map[string]int64

// CompiledContainer is a container decision plus its executable layout.
type CompiledContainer struct {
	Decision *Decision
	// ElemLayout is the compiled element layout for decomposed
	// containers; nil when the container keeps objects.
	ElemLayout *Layout
	// Lengths are the resolved array lengths used by the layout.
	Lengths udt.Lengths
}

// CompileLayouts resolves every fully-decomposed container's layout under
// the given symbol bindings. Containers that keep objects (or decompose
// only downstream) get a nil layout. StaticFixed layouts need every array
// length resolved; RuntimeFixed layouts compile without bindings (lengths
// are per-instance).
func (p *Plan) CompileLayouts(bindings Bindings) (map[string]*CompiledContainer, error) {
	out := make(map[string]*CompiledContainer, len(p.Decisions))
	for name, d := range p.Decisions {
		cc := &CompiledContainer{Decision: d}
		out[name] = cc
		if d.Mode != FullyDecompose || d.Container.Elem == nil {
			continue
		}
		lengths, err := p.resolveLengths(d.Container, bindings)
		if err != nil {
			return nil, fmt.Errorf("core: container %q: %w", name, err)
		}
		layout, err := CompileLayout(d.Container.Elem, d.ElemSizeType, lengths)
		if err != nil {
			return nil, fmt.Errorf("core: container %q: %w", name, err)
		}
		cc.ElemLayout = layout
		cc.Lengths = lengths
	}
	return out, nil
}

// resolveLengths walks the container's element type graph, queries the
// phase scope for each array type's symbolic fixed length, and evaluates
// it under the bindings. Only StaticFixed containers need lengths.
func (p *Plan) resolveLengths(c *Container, bindings Bindings) (udt.Lengths, error) {
	if d := p.Decisions[c.Name]; d.ElemSizeType != udt.StaticFixed {
		return nil, nil
	}
	scope, err := p.phaseScope(c)
	if err != nil {
		return nil, err
	}
	lengths := make(udt.Lengths)
	if err := collectArrayLengths(c.Elem, analysis.FieldRef{}, scope, bindings, lengths, map[*udt.Type]bool{}); err != nil {
		return nil, err
	}
	return lengths, nil
}

func (p *Plan) phaseScope(c *Container) (*analysis.Scope, error) {
	if p.Job.Program == nil {
		return nil, fmt.Errorf("no program facts to resolve array lengths")
	}
	phase := c.phaseForDecision()
	for _, ph := range p.Job.Phases {
		if ph.Name == phase {
			return p.Job.Program.Scope(ph.Entries...)
		}
	}
	// No phases declared: use the whole program.
	return p.Job.Program.Scope(p.Job.Program.MethodNames()...)
}

func collectArrayLengths(
	t *udt.Type,
	via analysis.FieldRef,
	scope *analysis.Scope,
	bindings Bindings,
	lengths udt.Lengths,
	seen map[*udt.Type]bool,
) error {
	if t == nil || t.Kind == udt.KindPrimitive || seen[t] {
		return nil
	}
	seen[t] = true
	if t.Kind == udt.KindArray {
		expr, ok := scope.FixedLengthValue(t.Name, via)
		if !ok {
			return fmt.Errorf("array %s has no fixed-length fact w.r.t. %s", t.Name, via)
		}
		v, err := expr.Eval(map[string]int64(bindings))
		if err != nil {
			return fmt.Errorf("array %s: %w", t.Name, err)
		}
		if v < 0 {
			return fmt.Errorf("array %s resolves to negative length %d", t.Name, v)
		}
		lengths[t.Name] = int(v)
		if t.Elem != nil {
			for _, rt := range t.Elem.RuntimeTypes() {
				ref := analysis.FieldRef{Owner: t.Name, Field: t.Elem.Name}
				if err := collectArrayLengths(rt, ref, scope, bindings, lengths, seen); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, f := range t.Fields {
		ref := analysis.FieldRef{Owner: t.Name, Field: f.Name}
		for _, rt := range f.RuntimeTypes() {
			if err := collectArrayLengths(rt, ref, scope, bindings, lengths, seen); err != nil {
				return err
			}
		}
	}
	return nil
}
