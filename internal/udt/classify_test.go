package udt

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestClassifyPrimitives(t *testing.T) {
	for _, p := range []Prim{PrimBool, PrimInt8, PrimInt16, PrimInt32, PrimInt64, PrimFloat32, PrimFloat64} {
		if got := Classify(Primitive(p)); got != StaticFixed {
			t.Errorf("Classify(%s) = %s, want StaticFixed", p, got)
		}
	}
}

func TestPrimSizes(t *testing.T) {
	want := map[Prim]int{
		PrimBool: 1, PrimInt8: 1, PrimInt16: 2, PrimInt32: 4,
		PrimInt64: 8, PrimFloat32: 4, PrimFloat64: 8,
	}
	for p, w := range want {
		if got := p.Size(); got != w {
			t.Errorf("%s.Size() = %d, want %d", p, got, w)
		}
	}
	if PrimInvalid.Size() != 0 {
		t.Errorf("PrimInvalid.Size() = %d, want 0", PrimInvalid.Size())
	}
}

func TestClassifyArrayOfPrimitives(t *testing.T) {
	// Arrays of statically fixed elements are RuntimeFixed: instances can
	// have different lengths (Algorithm 1 lines 6-10).
	arr := ArrayOf("Array[float64]", Primitive(PrimFloat64))
	if got := Classify(arr); got != RuntimeFixed {
		t.Errorf("Classify(Array[float64]) = %s, want RuntimeFixed", got)
	}
}

func TestClassifyArrayOfArrays(t *testing.T) {
	inner := ArrayOf("Array[int32]", Primitive(PrimInt32))
	outer := ArrayOf("Array[Array[int32]]", inner)
	if got := Classify(outer); got != Variable {
		t.Errorf("Classify(Array[Array[int32]]) = %s, want Variable", got)
	}
}

// TestClassifyPaperExample reproduces the §3.2 walk-through (Figure 3):
// DenseVector is RuntimeFixed thanks to its final data field; LabeledPoint
// is Variable because its non-final features field can be re-pointed at
// vectors of different data-sizes.
func TestClassifyPaperExample(t *testing.T) {
	if got := Classify(DenseVectorType()); got != RuntimeFixed {
		t.Errorf("Classify(DenseVector) = %s, want RuntimeFixed", got)
	}
	if got := Classify(LabeledPointType(false)); got != Variable {
		t.Errorf("Classify(LabeledPoint{var features}) = %s, want Variable", got)
	}
	// Even with a final features field the local classifier can only reach
	// RuntimeFixed: it still assumes vectors of differing lengths (§3.3's
	// motivation for the global analysis).
	if got := Classify(LabeledPointType(true)); got != RuntimeFixed {
		t.Errorf("Classify(LabeledPoint{val features}) = %s, want RuntimeFixed", got)
	}
}

func TestClassifyNonFinalRFSTFieldIsVariable(t *testing.T) {
	// A non-final field whose type-set contains an RFST degrades to
	// Variable (Algorithm 1 lines 28-29).
	arr := ArrayOf("Array[int64]", Primitive(PrimInt64))
	s := Struct("Holder", NewField("xs", arr, false))
	if got := Classify(s); got != Variable {
		t.Errorf("Classify(Holder{var xs}) = %s, want Variable", got)
	}
	sFinal := Struct("Holder", NewField("xs", arr, true))
	if got := Classify(sFinal); got != RuntimeFixed {
		t.Errorf("Classify(Holder{val xs}) = %s, want RuntimeFixed", got)
	}
}

func TestClassifyAllPrimitiveStructIsStaticFixed(t *testing.T) {
	s := Struct("Point",
		NewField("x", Primitive(PrimFloat64), false),
		NewField("y", Primitive(PrimFloat64), false),
		NewField("tag", Primitive(PrimInt32), false),
	)
	if got := Classify(s); got != StaticFixed {
		t.Errorf("Classify(Point) = %s, want StaticFixed", got)
	}
}

func TestClassifyRecursiveType(t *testing.T) {
	// A linked list: Node{value int64, next Node} — type-dependency cycle.
	node := &Type{Name: "Node", Kind: KindStruct}
	node.Fields = []*Field{
		NewField("value", Primitive(PrimInt64), false),
		NewField("next", node, true),
	}
	if got := Classify(node); got != RecurDef {
		t.Errorf("Classify(Node) = %s, want RecurDef", got)
	}
}

func TestClassifyMutuallyRecursiveTypes(t *testing.T) {
	a := &Type{Name: "A", Kind: KindStruct}
	b := &Type{Name: "B", Kind: KindStruct}
	a.Fields = []*Field{NewField("b", b, true)}
	b.Fields = []*Field{NewField("a", a, true)}
	if got := Classify(a); got != RecurDef {
		t.Errorf("Classify(A) = %s, want RecurDef", got)
	}
}

func TestClassifyCycleThroughArray(t *testing.T) {
	tree := &Type{Name: "Tree", Kind: KindStruct}
	kids := ArrayOf("Array[Tree]", tree)
	tree.Fields = []*Field{
		NewField("value", Primitive(PrimInt32), false),
		NewField("children", kids, true),
	}
	if got := Classify(tree); got != RecurDef {
		t.Errorf("Classify(Tree) = %s, want RecurDef", got)
	}
}

func TestClassifyTypeSetTakesMostVariable(t *testing.T) {
	// features: {DenseVector, SparseVector}, both RFST, field final → RFST.
	f := &Field{
		Name:     "features",
		Final:    true,
		Declared: DenseVectorType(),
		TypeSet:  []*Type{DenseVectorType(), SparseVectorType()},
	}
	s := Struct("P", NewField("label", Primitive(PrimFloat64), false), f)
	if got := Classify(s); got != RuntimeFixed {
		t.Errorf("Classify(P) = %s, want RuntimeFixed", got)
	}
	// Add a VST to the type-set → whole struct Variable.
	vst := Struct("Grower", NewField("buf", ArrayOf("Array[int8]", Primitive(PrimInt8)), false))
	f2 := &Field{Name: "features", Final: true, Declared: DenseVectorType(),
		TypeSet: []*Type{DenseVectorType(), vst}}
	s2 := Struct("P2", f2)
	if got := Classify(s2); got != Variable {
		t.Errorf("Classify(P2) = %s, want Variable", got)
	}
}

func TestClassifyNil(t *testing.T) {
	if got := Classify(nil); got != Variable {
		t.Errorf("Classify(nil) = %s, want Variable", got)
	}
}

func TestStringOutputs(t *testing.T) {
	if s := DenseVectorType().String(); s != "DenseVector" {
		t.Errorf("DenseVector.String() = %q", s)
	}
	arr := ArrayOf("Array[float64]", Primitive(PrimFloat64))
	if s := arr.String(); s != "Array[float64]" {
		t.Errorf("array String() = %q", s)
	}
	for st, want := range map[SizeType]string{
		StaticFixed: "StaticFixed", RuntimeFixed: "RuntimeFixed",
		Variable: "Variable", RecurDef: "RecurDef",
	} {
		if st.String() != want {
			t.Errorf("SizeType.String() = %q, want %q", st.String(), want)
		}
	}
}

func TestMaxOrdering(t *testing.T) {
	cases := []struct {
		a, b, want SizeType
	}{
		{StaticFixed, StaticFixed, StaticFixed},
		{StaticFixed, RuntimeFixed, RuntimeFixed},
		{RuntimeFixed, Variable, Variable},
		{StaticFixed, Variable, Variable},
		{Variable, RecurDef, RecurDef},
		{RecurDef, StaticFixed, RecurDef},
	}
	for _, c := range cases {
		if got := Max(c.a, c.b); got != c.want {
			t.Errorf("Max(%s, %s) = %s, want %s", c.a, c.b, got, c.want)
		}
		if got := Max(c.b, c.a); got != c.want {
			t.Errorf("Max(%s, %s) = %s, want %s", c.b, c.a, got, c.want)
		}
	}
}

func TestDecomposable(t *testing.T) {
	if !StaticFixed.Decomposable() || !RuntimeFixed.Decomposable() {
		t.Error("SFST and RFST must be decomposable")
	}
	if Variable.Decomposable() || RecurDef.Decomposable() {
		t.Error("VST and RecurDef must not be decomposable")
	}
}

// randomType generates a random acyclic descriptor for property testing.
func randomType(r *rand.Rand, depth int) *Type {
	if depth <= 0 || r.Intn(3) == 0 {
		prims := []Prim{PrimBool, PrimInt8, PrimInt16, PrimInt32, PrimInt64, PrimFloat32, PrimFloat64}
		return Primitive(prims[r.Intn(len(prims))])
	}
	if r.Intn(2) == 0 {
		elem := randomType(r, depth-1)
		return ArrayOf("Array["+elem.String()+"]", elem)
	}
	n := 1 + r.Intn(4)
	fields := make([]*Field, n)
	for i := range fields {
		fields[i] = NewField("f"+string(rune('a'+i)), randomType(r, depth-1), r.Intn(2) == 0)
	}
	return Struct("S", fields...)
}

// Property: acyclic descriptors never classify RecurDef, and making every
// field final never increases variability.
func TestClassifyProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		typ := randomType(r, 4)
		st := Classify(typ)
		if st == RecurDef {
			return false
		}
		finalized := finalizeAll(typ, make(map[*Type]*Type))
		st2 := Classify(finalized)
		// Finalizing fields can only reduce variability (VST→RFST) never
		// increase it.
		return Max(st2, st) == st
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func finalizeAll(t *Type, seen map[*Type]*Type) *Type {
	if t == nil || t.Kind == KindPrimitive {
		return t
	}
	if c, ok := seen[t]; ok {
		return c
	}
	c := &Type{Name: t.Name, Kind: t.Kind, Prim: t.Prim}
	seen[t] = c
	clone := func(f *Field) *Field {
		nf := &Field{Name: f.Name, Final: true}
		for _, rt := range f.RuntimeTypes() {
			crt := finalizeAll(rt, seen)
			nf.TypeSet = append(nf.TypeSet, crt)
			if nf.Declared == nil {
				nf.Declared = crt
			}
		}
		return nf
	}
	if t.Elem != nil {
		c.Elem = clone(t.Elem)
	}
	for _, f := range t.Fields {
		c.Fields = append(c.Fields, clone(f))
	}
	return c
}

func TestStaticDataSize(t *testing.T) {
	// Point{x,y float64, tag int32} = 20 bytes.
	s := Struct("Point",
		NewField("x", Primitive(PrimFloat64), false),
		NewField("y", Primitive(PrimFloat64), false),
		NewField("tag", Primitive(PrimInt32), false),
	)
	got, err := StaticDataSize(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != 20 {
		t.Errorf("StaticDataSize(Point) = %d, want 20", got)
	}
}

func TestStaticDataSizeLabeledPoint(t *testing.T) {
	// With D bound, LabeledPoint = label(8) + data(D*8) + offset/stride/length(12).
	lp := LabeledPointType(true)
	const D = 10
	got, err := StaticDataSize(lp, Lengths{"Array[float64]": D})
	if err != nil {
		t.Fatal(err)
	}
	want := 8 + D*8 + 12
	if got != want {
		t.Errorf("StaticDataSize(LabeledPoint, D=10) = %d, want %d", got, want)
	}
}

func TestStaticDataSizeMissingLength(t *testing.T) {
	lp := LabeledPointType(true)
	if _, err := StaticDataSize(lp, nil); err == nil {
		t.Error("StaticDataSize without length binding should fail")
	}
}

func TestStaticDataSizeRecursive(t *testing.T) {
	node := &Type{Name: "Node", Kind: KindStruct}
	node.Fields = []*Field{NewField("next", node, true)}
	if _, err := StaticDataSize(node, nil); err == nil {
		t.Error("StaticDataSize on recursive type should fail")
	}
}

func TestStaticDataSizeMismatchedTypeSet(t *testing.T) {
	f := &Field{Name: "v", Final: true,
		Declared: Primitive(PrimInt32),
		TypeSet:  []*Type{Primitive(PrimInt32), Primitive(PrimInt64)}}
	s := Struct("S", f)
	if _, err := StaticDataSize(s, nil); err == nil {
		t.Error("StaticDataSize with differently-sized type-set should fail")
	}
}

type reflPoint struct {
	X   float64
	Y   float64
	Tag int32
}

type reflVec struct {
	Data   []float64 `deca:"final"`
	Length int32
}

type reflLabeled struct {
	Label    float64
	Features reflVec `deca:"final"`
}

type reflNode struct {
	Value int64
	Next  *reflNode
}

func TestDescribe(t *testing.T) {
	pt, err := Describe(reflect.TypeOf(reflPoint{}))
	if err != nil {
		t.Fatal(err)
	}
	if got := Classify(pt); got != StaticFixed {
		t.Errorf("Classify(reflPoint) = %s, want StaticFixed", got)
	}
	if sz, _ := StaticDataSize(pt, nil); sz != 20 {
		t.Errorf("reflPoint size = %d, want 20", sz)
	}

	lv, err := Describe(reflect.TypeOf(reflLabeled{}))
	if err != nil {
		t.Fatal(err)
	}
	if got := Classify(lv); got != RuntimeFixed {
		t.Errorf("Classify(reflLabeled) = %s, want RuntimeFixed", got)
	}

	node, err := Describe(reflect.TypeOf(reflNode{}))
	if err != nil {
		t.Fatal(err)
	}
	if got := Classify(node); got != RecurDef {
		t.Errorf("Classify(reflNode) = %s, want RecurDef", got)
	}
}

func TestDescribeString(t *testing.T) {
	type row struct {
		URL  string `deca:"final"`
		Rank int32
	}
	rt, err := Describe(reflect.TypeOf(row{}))
	if err != nil {
		t.Fatal(err)
	}
	// Strings are RFST (final byte array), so the row is RFST.
	if got := Classify(rt); got != RuntimeFixed {
		t.Errorf("Classify(row) = %s, want RuntimeFixed", got)
	}
}

func TestDescribeUnsupported(t *testing.T) {
	if _, err := Describe(reflect.TypeOf(map[string]int{})); err == nil {
		t.Error("Describe(map) should fail")
	}
	if _, err := Describe(reflect.TypeOf(make(chan int))); err == nil {
		t.Error("Describe(chan) should fail")
	}
}

func TestDescribeNonFinalString(t *testing.T) {
	// A non-final string field: String is RFST, field non-final → Variable.
	type row struct {
		URL string
	}
	rt, err := Describe(reflect.TypeOf(row{}))
	if err != nil {
		t.Fatal(err)
	}
	if got := Classify(rt); got != Variable {
		t.Errorf("Classify(row{var URL}) = %s, want Variable", got)
	}
}
