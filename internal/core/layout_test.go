package core

import (
	"reflect"
	"testing"

	"deca/internal/decompose"
	"deca/internal/memory"
	"deca/internal/udt"
)

// TestFigure2Layout verifies the byte layout of the decomposed LabeledPoint
// from Figure 2: all references and headers gone, the raw primitive data of
// the object graph laid out contiguously — label, then data[0..D-1], then
// the offset/stride/length ints of the DenseVector.
func TestFigure2Layout(t *testing.T) {
	const D = 4
	lp := udt.LabeledPointType(true)
	l, err := CompileLayout(lp, udt.StaticFixed, udt.Lengths{"Array[float64]": D})
	if err != nil {
		t.Fatal(err)
	}
	wantSize := 8 + 8*D + 4 + 4 + 4
	if l.FixedSize != wantSize {
		t.Fatalf("FixedSize = %d, want %d", l.FixedSize, wantSize)
	}
	if got := l.Scalar("label").Offset; got != 0 {
		t.Errorf("label offset = %d, want 0", got)
	}
	arr := l.Array("features.data")
	if arr.Offset != 8 || arr.Count != D || arr.ElemPrim != udt.PrimFloat64 {
		t.Errorf("features.data slot = %+v", arr)
	}
	if got := arr.ElemOffset(2); got != 8+16 {
		t.Errorf("data[2] offset = %d, want 24", got)
	}
	if got := l.Scalar("features.offset").Offset; got != 8+8*D {
		t.Errorf("features.offset offset = %d, want %d", got, 8+8*D)
	}
	if got := l.Scalar("features.stride").Offset; got != 8+8*D+4 {
		t.Errorf("features.stride offset = %d", got)
	}
	if got := l.Scalar("features.length").Offset; got != 8+8*D+8 {
		t.Errorf("features.length offset = %d", got)
	}
	ns, na := l.NumSlots()
	if ns != 4 || na != 1 {
		t.Errorf("NumSlots = %d scalars %d arrays, want 4/1", ns, na)
	}
}

func TestCompileLayoutRejectsVST(t *testing.T) {
	lp := udt.LabeledPointType(false)
	if _, err := CompileLayout(lp, udt.Variable, nil); err == nil {
		t.Error("compiling a Variable layout must fail")
	}
	if _, err := CompileLayout(lp, udt.RecurDef, nil); err == nil {
		t.Error("compiling a RecurDef layout must fail")
	}
}

func TestCompileLayoutMissingLength(t *testing.T) {
	lp := udt.LabeledPointType(true)
	if _, err := CompileLayout(lp, udt.StaticFixed, nil); err == nil {
		t.Error("StaticFixed layout without length binding must fail")
	}
}

func TestCompileLayoutRFST(t *testing.T) {
	l, err := CompileLayout(udt.StringType(), udt.RuntimeFixed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.FixedSize != -1 {
		t.Errorf("RFST FixedSize = %d, want -1", l.FixedSize)
	}
}

func TestNestedArrayOfStructs(t *testing.T) {
	// Array of 3 Points inside a wrapper: flattening expands each element.
	point := udt.Struct("Point",
		udt.NewField("x", udt.Primitive(udt.PrimFloat64), false),
		udt.NewField("y", udt.Primitive(udt.PrimFloat64), false),
	)
	arr := udt.ArrayOf("Array[Point]", point)
	wrap := udt.Struct("Wrap",
		udt.NewField("id", udt.Primitive(udt.PrimInt64), false),
		udt.NewField("pts", arr, true),
	)
	l, err := CompileLayout(wrap, udt.StaticFixed, udt.Lengths{"Array[Point]": 3})
	if err != nil {
		t.Fatal(err)
	}
	if l.FixedSize != 8+3*16 {
		t.Fatalf("FixedSize = %d, want 56", l.FixedSize)
	}
	if got := l.Scalar("pts[1].y").Offset; got != 8+16+8 {
		t.Errorf("pts[1].y offset = %d, want 32", got)
	}
}

func TestScalarPanicsOnUnknownPath(t *testing.T) {
	l, err := CompileLayout(udt.LabeledPointType(true), udt.StaticFixed,
		udt.Lengths{"Array[float64]": 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown path should panic")
		}
	}()
	l.Scalar("no.such.field")
}

func TestAmbiguousTypeSetRejected(t *testing.T) {
	f := &udt.Field{
		Name:     "v",
		Final:    true,
		Declared: udt.Primitive(udt.PrimInt64),
		TypeSet:  []*udt.Type{udt.Primitive(udt.PrimInt64), udt.Primitive(udt.PrimFloat64)},
	}
	s := udt.Struct("Amb", f)
	if _, err := CompileLayout(s, udt.StaticFixed, nil); err == nil {
		t.Error("ambiguous type-set must be rejected for static layouts")
	}
}

// TestTransformedGradientLoop mirrors Figure 12: the transformed LR
// gradient computation reading label and features straight out of the page
// bytes using layout offsets, no object materialization.
func TestTransformedGradientLoop(t *testing.T) {
	const D = 3
	lp := udt.LabeledPointType(true)
	layout, err := CompileLayout(lp, udt.StaticFixed, udt.Lengths{"Array[float64]": D})
	if err != nil {
		t.Fatal(err)
	}
	m := memory.NewManager(1024, 0)
	g := m.NewGroup()
	defer g.Release()

	// Write two points: (label=1, f=[1,2,3]), (label=-1, f=[4,5,6]).
	write := func(label float64, f [D]float64) {
		seg, _ := g.Alloc(layout.FixedSize)
		decompose.PutF64(seg, layout.Scalar("label").Offset, label)
		slot := layout.Array("features.data")
		for i, x := range f {
			decompose.PutF64(seg, slot.ElemOffset(i), x)
		}
		decompose.PutI32(seg, layout.Scalar("features.length").Offset, D)
	}
	write(1, [D]float64{1, 2, 3})
	write(-1, [D]float64{4, 5, 6})

	// The transformed loop: sum label * features element-wise.
	labelOff := layout.Scalar("label").Offset
	slot := layout.Array("features.data")
	sum := make([]float64, D)
	for p := 0; p < g.NumPages(); p++ {
		page := g.Page(p)
		for off := 0; off+layout.FixedSize <= len(page); off += layout.FixedSize {
			seg := page[off : off+layout.FixedSize]
			label := decompose.F64(seg, labelOff)
			for i := 0; i < D; i++ {
				sum[i] += label * decompose.F64(seg, slot.ElemOffset(i))
			}
		}
	}
	want := []float64{1 - 4, 2 - 5, 3 - 6}
	if !reflect.DeepEqual(sum, want) {
		t.Errorf("gradient = %v, want %v", sum, want)
	}
}
