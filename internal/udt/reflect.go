package udt

import (
	"fmt"
	"reflect"
	"strings"
)

// Describe derives a type descriptor from a Go type via reflection. It is
// the automatic counterpart of Deca's Soot-based extraction: Go struct
// fields map to descriptor fields, slices map to array descriptors, and the
// struct tag `deca:"final"` marks fields whose reference is never
// reassigned after construction (Java final / Scala val).
//
// Supported Go kinds: bool, int8/16/32/64, int, uint8/16/32/64 (mapped to
// the signed descriptor of the same width), float32/64, string (modelled as
// the String descriptor), structs, pointers to structs, and slices of any
// supported kind. Interface-typed fields cannot be described automatically
// because their type-set is unknowable without points-to facts; describe
// such types with the builder API instead.
func Describe(goType reflect.Type) (*Type, error) {
	d := &describer{seen: make(map[reflect.Type]*Type)}
	return d.describe(goType)
}

// MustDescribe is Describe that panics on error, for use with types the
// caller controls.
func MustDescribe(goType reflect.Type) *Type {
	t, err := Describe(goType)
	if err != nil {
		panic(err)
	}
	return t
}

type describer struct {
	seen map[reflect.Type]*Type
}

func (d *describer) describe(gt reflect.Type) (*Type, error) {
	if gt == nil {
		return nil, fmt.Errorf("udt: cannot describe nil type")
	}
	if t, ok := d.seen[gt]; ok {
		return t, nil
	}
	switch gt.Kind() {
	case reflect.Bool:
		return Primitive(PrimBool), nil
	case reflect.Int8, reflect.Uint8:
		return Primitive(PrimInt8), nil
	case reflect.Int16, reflect.Uint16:
		return Primitive(PrimInt16), nil
	case reflect.Int32, reflect.Uint32:
		return Primitive(PrimInt32), nil
	case reflect.Int64, reflect.Uint64, reflect.Int, reflect.Uint:
		return Primitive(PrimInt64), nil
	case reflect.Float32:
		return Primitive(PrimFloat32), nil
	case reflect.Float64:
		return Primitive(PrimFloat64), nil
	case reflect.String:
		return StringType(), nil
	case reflect.Pointer:
		return d.describe(gt.Elem())
	case reflect.Slice, reflect.Array:
		elem, err := d.describe(gt.Elem())
		if err != nil {
			return nil, err
		}
		return ArrayOf("Array["+elem.String()+"]", elem), nil
	case reflect.Struct:
		// Insert a placeholder first so self-referential Go types surface
		// as cycles (RecurDef) instead of infinite recursion.
		t := &Type{Name: structName(gt), Kind: KindStruct}
		d.seen[gt] = t
		for i := 0; i < gt.NumField(); i++ {
			sf := gt.Field(i)
			if sf.PkgPath != "" { // unexported
				continue
			}
			ft, err := d.describe(sf.Type)
			if err != nil {
				return nil, fmt.Errorf("udt: field %s.%s: %w", gt.Name(), sf.Name, err)
			}
			final := hasTag(sf.Tag.Get("deca"), "final")
			t.Fields = append(t.Fields, NewField(sf.Name, ft, final))
		}
		return t, nil
	default:
		return nil, fmt.Errorf("udt: unsupported Go kind %s", gt.Kind())
	}
}

func structName(gt reflect.Type) string {
	if gt.Name() != "" {
		return gt.Name()
	}
	return gt.String()
}

func hasTag(tag, want string) bool {
	for _, part := range strings.Split(tag, ",") {
		if strings.TrimSpace(part) == want {
			return true
		}
	}
	return false
}
