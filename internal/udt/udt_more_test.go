package udt

import (
	"reflect"
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	if KindPrimitive.String() != "primitive" || KindArray.String() != "array" || KindStruct.String() != "struct" {
		t.Error("Kind strings wrong")
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Error("unknown Kind should render numerically")
	}
}

func TestTypeStringVariants(t *testing.T) {
	if (*Type)(nil).String() != "<nil>" {
		t.Error("nil type String")
	}
	// Array with a multi-type element set renders deterministically.
	arr := &Type{
		Name: "Array[mixed]",
		Kind: KindArray,
		Elem: &Field{Name: "elem", TypeSet: []*Type{Primitive(PrimInt64), Primitive(PrimFloat64)}},
	}
	if got := arr.String(); got != "Array[float64|int64]" {
		t.Errorf("multi-element array String = %q", got)
	}
	empty := &Type{Name: "Array[?]", Kind: KindArray}
	if got := empty.String(); got != "Array[?]" {
		t.Errorf("elemless array String = %q", got)
	}
}

func TestDescribeValue(t *testing.T) {
	type point struct{ X, Y float64 }
	d, err := Describe(reflect.TypeOf(point{}))
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "point" || len(d.Fields) != 2 {
		t.Errorf("Describe(point) = %+v", d)
	}
	if _, err := Describe(reflect.TypeOf(nil)); err == nil {
		t.Error("Describe(nil) should fail")
	}
}

func TestMustDescribePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustDescribe on unsupported type should panic")
		}
	}()
	MustDescribe(nil)
}

func TestDescribeSkipsUnexported(t *testing.T) {
	type rec struct {
		Public int64
		hidden string //nolint:unused // presence is the point
	}
	_ = rec{}.hidden
	d, err := Describe(reflect.TypeOf(rec{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Fields) != 1 || d.Fields[0].Name != "Public" {
		t.Errorf("fields = %+v", d.Fields)
	}
}

func TestRuntimeTypesFallbacks(t *testing.T) {
	f := &Field{Name: "f", Declared: Primitive(PrimInt32)}
	if got := f.RuntimeTypes(); len(got) != 1 || got[0] != Primitive(PrimInt32) {
		t.Error("RuntimeTypes should fall back to the declared type")
	}
	empty := &Field{Name: "f"}
	if got := empty.RuntimeTypes(); got != nil {
		t.Error("field with neither declared type nor type-set should yield nil")
	}
}

func TestStaticDataSizeEmptyTypeSet(t *testing.T) {
	s := Struct("S", &Field{Name: "f"})
	if _, err := StaticDataSize(s, nil); err == nil {
		t.Error("empty type-set must error")
	}
}

func TestDataSizeOfString(t *testing.T) {
	// Strings are RFST: no static size without a length bound.
	if _, err := StaticDataSize(StringType(), nil); err == nil {
		t.Error("String without length bound should have no static size")
	}
	// With a bound, the byte array resolves.
	size, err := StaticDataSize(StringType(), Lengths{"Array[int8]": 5})
	if err != nil {
		t.Fatal(err)
	}
	if size != 5 {
		t.Errorf("String(5) size = %d", size)
	}
}
