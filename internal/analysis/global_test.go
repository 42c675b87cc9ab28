package analysis

import (
	"testing"

	"deca/internal/udt"
)

// TestLRGlobalRefinement reproduces the §3.3 walk-through: the local
// classifier grades LabeledPoint Variable (non-final features field), but
// the global analysis finds all Array[float64] allocations bound to
// DenseVector.data use the constant length D, so both DenseVector and
// LabeledPoint refine to StaticFixed.
func TestLRGlobalRefinement(t *testing.T) {
	prog := LRProgram()
	scope := prog.MustScope("LR.main")
	cl := NewClassifier(scope)

	lp := udt.LabeledPointType(false)
	if local := udt.Classify(lp); local != udt.Variable {
		t.Fatalf("local Classify(LabeledPoint) = %s, want Variable", local)
	}
	if got := cl.Classify(lp); got != udt.StaticFixed {
		t.Errorf("global Classify(LabeledPoint) = %s, want StaticFixed", got)
	}
	if got := cl.Classify(udt.DenseVectorType()); got != udt.StaticFixed {
		t.Errorf("global Classify(DenseVector) = %s, want StaticFixed", got)
	}
}

// TestRRefineInitOnly: when the array lengths differ across allocation
// sites, SFST refinement fails, but LabeledPoint still refines to
// RuntimeFixed because features is init-only (assigned once, only in the
// constructor) even though it is declared var.
func TestRRefineInitOnly(t *testing.T) {
	p := NewProgram()
	dataRef := FieldRef{Owner: "DenseVector", Field: "data"}
	p.AddCtor("DenseVector.<init>", "DenseVector").AssignField(dataRef, 1)
	p.AddCtor("LabeledPoint.<init>", "LabeledPoint").
		AssignField(FieldRef{Owner: "LabeledPoint", Field: "features"}, 1)
	p.AddMethod("mapA").
		AllocArray("Array[float64]", dataRef, Sym("D")).
		Call("DenseVector.<init>", "LabeledPoint.<init>")
	p.AddMethod("mapB").
		AllocArray("Array[float64]", dataRef, Sym("E")). // different length!
		Call("DenseVector.<init>", "LabeledPoint.<init>")
	p.AddMethod("main").Call("mapA", "mapB")

	cl := NewClassifier(p.MustScope("main"))
	lp := udt.LabeledPointType(false)
	if got := cl.Classify(lp); got != udt.RuntimeFixed {
		t.Errorf("Classify(LabeledPoint) = %s, want RuntimeFixed", got)
	}
}

// TestMutationDefeatsRefinement: a field assignment outside constructors
// makes the field non-init-only, so the type stays Variable.
func TestMutationDefeatsRefinement(t *testing.T) {
	p := NewProgram()
	dataRef := FieldRef{Owner: "DenseVector", Field: "data"}
	featRef := FieldRef{Owner: "LabeledPoint", Field: "features"}
	p.AddCtor("DenseVector.<init>", "DenseVector").AssignField(dataRef, 1)
	p.AddCtor("LabeledPoint.<init>", "LabeledPoint").AssignField(featRef, 1)
	p.AddMethod("map").
		AllocArray("Array[float64]", dataRef, Sym("D")).
		Call("DenseVector.<init>", "LabeledPoint.<init>")
	p.AddMethod("mutate").
		AllocArray("Array[float64]", dataRef, Sym("E")).
		AssignField(featRef, 1). // re-points features outside the ctor
		Call("DenseVector.<init>")
	p.AddMethod("main").Call("map", "mutate")

	cl := NewClassifier(p.MustScope("main"))
	if got := cl.Classify(udt.LabeledPointType(false)); got != udt.Variable {
		t.Errorf("Classify(LabeledPoint) = %s, want Variable", got)
	}
}

// TestCtorDelegationAssignTwice: a constructor chain that assigns the same
// field twice defeats init-only (rule 3).
func TestCtorDelegationAssignTwice(t *testing.T) {
	p := NewProgram()
	ref := FieldRef{Owner: "Box", Field: "payload"}
	p.AddCtor("Box.<init>1", "Box").AssignField(ref, 1).Call("Box.<init>2")
	p.AddCtor("Box.<init>2", "Box").AssignField(ref, 1)
	p.AddMethod("main").Call("Box.<init>1")

	scope := p.MustScope("main")
	if scope.InitOnly(ref, false) {
		t.Error("field assigned twice along a ctor chain must not be init-only")
	}

	// A chain where only the delegate assigns stays init-only.
	p2 := NewProgram()
	p2.AddCtor("Box.<init>1", "Box").Call("Box.<init>2")
	p2.AddCtor("Box.<init>2", "Box").AssignField(ref, 1)
	p2.AddMethod("main").Call("Box.<init>1")
	if !p2.MustScope("main").InitOnly(ref, false) {
		t.Error("single assignment along the ctor chain should be init-only")
	}
}

func TestCtorDelegationCycle(t *testing.T) {
	p := NewProgram()
	ref := FieldRef{Owner: "Box", Field: "payload"}
	p.AddCtor("Box.<init>1", "Box").AssignField(ref, 1).Call("Box.<init>2")
	p.AddCtor("Box.<init>2", "Box").Call("Box.<init>1")
	p.AddMethod("main").Call("Box.<init>1")
	if p.MustScope("main").InitOnly(ref, false) {
		t.Error("cyclic ctor delegation with assignment must not be init-only")
	}
}

func TestFinalFieldAlwaysInitOnly(t *testing.T) {
	p := NewProgram()
	p.AddMethod("main")
	scope := p.MustScope("main")
	if !scope.InitOnly(FieldRef{Owner: "T", Field: "f"}, true) {
		t.Error("final fields are init-only by rule 1")
	}
}

func TestFixedLengthRequiresAllocSite(t *testing.T) {
	p := NewProgram()
	p.AddMethod("main")
	scope := p.MustScope("main")
	if scope.FixedLength("Array[float64]", FieldRef{}) {
		t.Error("no allocation sites → cannot prove fixed length")
	}
}

func TestFixedLengthTopLevel(t *testing.T) {
	p := NewProgram()
	p.AddMethod("main").
		AllocArray("Array[int32]", FieldRef{}, Const(2).Add(Sym("1")).AddConst(-1)).
		AllocArray("Array[int32]", FieldRef{}, Sym("1").AddConst(1))
	scope := p.MustScope("main")
	// Figure 4: both sites have length Symbol(1)+1.
	if !scope.FixedLength("Array[int32]", FieldRef{}) {
		t.Error("equivalent symbolic lengths should be fixed-length")
	}
	l, ok := scope.FixedLengthValue("Array[int32]", FieldRef{})
	if !ok || l.String() != "Symbol(1)+1" {
		t.Errorf("FixedLengthValue = %s, %v", l, ok)
	}
}

// TestStringIsRFSTWithEmptyFacts: the String descriptor (final byte array)
// refines to RuntimeFixed with no program facts at all, which is what makes
// string-bearing rows decomposable (§6.6).
func TestStringIsRFSTWithEmptyFacts(t *testing.T) {
	p := NewProgram()
	p.AddMethod("main")
	cl := NewClassifier(p.MustScope("main"))
	if got := cl.Classify(udt.StringType()); got != udt.RuntimeFixed {
		t.Errorf("Classify(String) = %s, want RuntimeFixed", got)
	}
}

// TestArrayElementNeverInitOnly: an array whose elements are RFST cannot be
// refined to RFST because element fields are never init-only (rule 2).
func TestArrayElementNeverInitOnly(t *testing.T) {
	p := NewProgram()
	p.AddMethod("main")
	cl := NewClassifier(p.MustScope("main"))
	arrOfStrings := udt.ArrayOf("Array[String]", udt.StringType())
	if got := cl.Classify(arrOfStrings); got != udt.Variable {
		t.Errorf("Classify(Array[String]) = %s, want Variable", got)
	}
}

// TestPhasedRefinement reproduces §3.4: a buffer type whose array field
// grows during the building phase (Variable) becomes RuntimeFixed in the
// subsequent phase whose scope contains no assignment to the field.
func TestPhasedRefinement(t *testing.T) {
	arr := udt.ArrayOf("Array[int64]", udt.Primitive(udt.PrimInt64))
	buf := udt.Struct("ValueBuffer",
		udt.NewField("values", arr, false),
		udt.NewField("count", udt.Primitive(udt.PrimInt32), false),
	)

	p := NewProgram()
	valuesRef := FieldRef{Owner: "ValueBuffer", Field: "values"}
	p.AddCtor("ValueBuffer.<init>", "ValueBuffer").
		AssignField(valuesRef, 1).
		AllocArray("Array[int64]", valuesRef, Const(8))
	p.AddMethod("ValueBuffer.append").
		AssignField(valuesRef, 1). // grow: re-point values at a bigger array
		AllocArray("Array[int64]", valuesRef, Sym("n").MulConst(2))
	p.AddMethod("shuffleWrite").Call("ValueBuffer.<init>", "ValueBuffer.append")
	p.AddMethod("cacheRead") // iterates, never assigns

	results, err := PhasedClassify(p, buf, []Phase{
		{Name: "shuffle-write", Entries: []string{"shuffleWrite"}},
		{Name: "cache-read", Entries: []string{"cacheRead"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].SizeType != udt.Variable {
		t.Errorf("phase %s: got %s, want Variable", results[0].Phase, results[0].SizeType)
	}
	if results[1].SizeType != udt.RuntimeFixed {
		t.Errorf("phase %s: got %s, want RuntimeFixed", results[1].Phase, results[1].SizeType)
	}
}

func TestPhasedClassifyUnknownEntry(t *testing.T) {
	p := NewProgram()
	_, err := PhasedClassify(p, udt.StringType(), []Phase{{Name: "x", Entries: []string{"nope"}}})
	if err == nil {
		t.Error("unknown phase entry should error")
	}
}

// TestRefineNeverIncreasesVariability: Algorithm 2's result is never more
// variable than the local classification, across the paper types under
// several programs.
func TestRefineNeverIncreasesVariability(t *testing.T) {
	types := []*udt.Type{
		udt.LabeledPointType(false),
		udt.LabeledPointType(true),
		udt.DenseVectorType(),
		udt.SparseVectorType(),
		udt.StringType(),
		udt.ArrayOf("Array[float64]", udt.Primitive(udt.PrimFloat64)),
	}
	programs := []*Program{LRProgram(), NewProgram()}
	for _, prog := range programs {
		prog.AddMethod("main")
		cl := NewClassifier(prog.MustScope(prog.MethodNames()...))
		for _, typ := range types {
			local := udt.Classify(typ)
			global := cl.Classify(typ)
			if udt.Max(local, global) != local {
				t.Errorf("%s: refinement increased variability: local=%s global=%s",
					typ, local, global)
			}
		}
	}
}

// TestRecurDefSurvivesRefinement: recursively-defined types are never
// refined.
func TestRecurDefSurvivesRefinement(t *testing.T) {
	node := &udt.Type{Name: "Node", Kind: udt.KindStruct}
	node.Fields = []*udt.Field{udt.NewField("next", node, true)}
	p := NewProgram()
	p.AddMethod("main")
	cl := NewClassifier(p.MustScope("main"))
	if got := cl.Classify(node); got != udt.RecurDef {
		t.Errorf("Classify(Node) = %s, want RecurDef", got)
	}
}

func TestScopeRestriction(t *testing.T) {
	// The same program classifies differently under different stage scopes:
	// stage A allocates with length D; stage B with length E. A scope
	// spanning both cannot prove fixed-length; each stage alone can.
	p := NewProgram()
	dataRef := FieldRef{Owner: "DenseVector", Field: "data"}
	p.AddCtor("DenseVector.<init>", "DenseVector").AssignField(dataRef, 1)
	p.AddMethod("stageA").AllocArray("Array[float64]", dataRef, Sym("D")).Call("DenseVector.<init>")
	p.AddMethod("stageB").AllocArray("Array[float64]", dataRef, Sym("E")).Call("DenseVector.<init>")

	dv := udt.DenseVectorType()
	clA := NewClassifier(p.MustScope("stageA"))
	if got := clA.Classify(dv); got != udt.StaticFixed {
		t.Errorf("stageA Classify(DenseVector) = %s, want StaticFixed", got)
	}
	clAll := NewClassifier(p.MustScope("stageA", "stageB"))
	if got := clAll.Classify(dv); got != udt.RuntimeFixed {
		t.Errorf("whole-program Classify(DenseVector) = %s, want RuntimeFixed", got)
	}
}

func TestScopeUnknownMethod(t *testing.T) {
	p := NewProgram()
	if _, err := p.Scope("missing"); err == nil {
		t.Error("Scope with unknown entry should fail")
	}
}

func TestFieldRefString(t *testing.T) {
	if s := (FieldRef{}).String(); s != "<local>" {
		t.Errorf("zero FieldRef.String() = %q", s)
	}
	if s := (FieldRef{Owner: "T", Field: "f"}).String(); s != "T.f" {
		t.Errorf("FieldRef.String() = %q", s)
	}
}
