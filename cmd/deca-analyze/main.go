// Command deca-analyze demonstrates the Deca optimizer's analysis chain
// on the paper's running examples: the local UDT classification
// (Algorithm 1), the global refinement with program facts (Algorithms
// 2-4), the phased refinement (§3.4), and the container lifetime plans
// (§4.2-4.3) for the LR, WC and PR jobs, with the byte layout each
// decomposed container compiles to once its symbolic array lengths are
// bound at submission (Appendix A).
package main

import (
	"fmt"
	"maps"
	"slices"

	"deca/internal/analysis"
	"deca/internal/core"
	"deca/internal/udt"
)

func main() {
	fmt.Println("== Local classification (Algorithm 1, Figure 3) ==")
	types := []struct {
		name string
		t    *udt.Type
	}{
		{"DenseVector", udt.DenseVectorType()},
		{"SparseVector", udt.SparseVectorType()},
		{"LabeledPoint (var features)", udt.LabeledPointType(false)},
		{"LabeledPoint (val features)", udt.LabeledPointType(true)},
		{"String", udt.StringType()},
		{"Array[float64]", udt.ArrayOf("Array[float64]", udt.Primitive(udt.PrimFloat64))},
	}
	node := &udt.Type{Name: "Node", Kind: udt.KindStruct}
	node.Fields = []*udt.Field{
		udt.NewField("value", udt.Primitive(udt.PrimInt64), false),
		udt.NewField("next", node, true),
	}
	types = append(types, struct {
		name string
		t    *udt.Type
	}{"Node (linked list)", node})

	for _, tt := range types {
		fmt.Printf("  %-28s -> %s\n", tt.name, udt.Classify(tt.t))
	}

	fmt.Println("\n== Global refinement on the LR program (§3.3) ==")
	prog := analysis.LRProgram()
	scope := prog.MustScope("LR.main")
	cl := analysis.NewClassifier(scope)
	lp := udt.LabeledPointType(false)
	fmt.Printf("  local:  LabeledPoint -> %s\n", udt.Classify(lp))
	fmt.Printf("  global: LabeledPoint -> %s  (all Array[float64] allocs use length Symbol(D))\n",
		cl.Classify(lp))
	size, err := udt.StaticDataSize(lp, udt.Lengths{"Array[float64]": 10})
	if err == nil {
		fmt.Printf("  data-size with D=10: %d bytes (Figure 2 layout)\n", size)
	}

	fmt.Println("\n== Symbolized constant propagation (Figure 4) ==")
	a := analysis.Sym("1")
	b := analysis.Const(2).Add(a).AddConst(-1)
	c := a.AddConst(1)
	fmt.Printf("  b = 2 + a - 1 = %s\n  c = a + 1     = %s\n  equivalent: %v\n", b, c, b.Equal(c))

	fmt.Println("\n== Container lifetime plans (§4.2-4.3) ==")
	for _, job := range []*core.Job{core.LRJob(), core.WCJob(), core.PRJob()} {
		plan, err := core.Optimize(job)
		if err != nil {
			fmt.Printf("  %s: error: %v\n", job.Name, err)
			continue
		}
		fmt.Print(plan.String())
		printLayouts(plan)
		fmt.Println()
	}
}

// printLayouts binds the feature dimension D to 10 and prints one line
// per container that compiles to a byte layout. A RuntimeFixed layout has
// no constant size: its arrays carry their own lengths.
func printLayouts(plan *core.Plan) {
	bindings := core.Bindings{"D": 10}
	compiled, err := plan.CompileLayouts(bindings)
	if err != nil {
		fmt.Printf("  layouts: error: %v\n", err)
		return
	}
	for _, name := range slices.Sorted(maps.Keys(compiled)) {
		l := compiled[name].ElemLayout
		if l == nil {
			continue
		}
		desc := fmt.Sprintf("%s, sized per instance by its length-prefixed arrays", l.SizeType)
		if l.SizeType == udt.StaticFixed {
			scalars, arrays := l.NumSlots()
			desc = fmt.Sprintf("%s, %d bytes, %d scalar + %d array slots", l.SizeType, l.FixedSize, scalars, arrays)
			if arrays > 0 {
				desc += fmt.Sprintf(" at D=%d", bindings["D"])
			}
		}
		fmt.Printf("  layout %-22s %-13s %s\n", name, l.Type, desc)
	}
}
