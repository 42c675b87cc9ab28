// Package udt models user-defined types (UDTs) as annotated type
// descriptors and classifies them by the variability of their data-size,
// following §3 of the Deca paper (Lu et al., VLDB 2016).
//
// The data-size of an object is the sum of the sizes of the primitive-type
// fields in its static object reference graph. A UDT is classified into one
// of four size-types:
//
//   - StaticFixed (SFST): all instances have the same data-size, which never
//     changes at runtime.
//   - RuntimeFixed (RFST): each instance's data-size is fixed once the
//     instance is constructed, but different instances may differ.
//   - Variable (VST): the data-size of an instance may change after
//     construction.
//   - RecurDef: the type-definition graph contains a cycle, so instances may
//     contain reference cycles and can never be safely decomposed.
//
// Only SFST and RFST objects can be decomposed into contiguous byte
// segments; see package decompose.
package udt

import (
	"fmt"
	"sort"
	"strings"
)

// Kind discriminates the structural kind of a type descriptor.
type Kind int

const (
	// KindPrimitive is a fixed-size scalar (bool, int32, float64, ...).
	KindPrimitive Kind = iota
	// KindArray is a variable-length sequence of one element type. An array
	// implicitly carries a (primitive) length field plus an element field.
	KindArray
	// KindStruct is a record with named fields.
	KindStruct
)

func (k Kind) String() string {
	switch k {
	case KindPrimitive:
		return "primitive"
	case KindArray:
		return "array"
	case KindStruct:
		return "struct"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Prim enumerates the primitive scalar types, with JVM-equivalent widths.
type Prim int

const (
	PrimInvalid Prim = iota
	PrimBool
	PrimInt8
	PrimInt16
	PrimInt32
	PrimInt64
	PrimFloat32
	PrimFloat64
)

// Size returns the number of bytes a value of the primitive occupies in the
// decomposed layout.
func (p Prim) Size() int {
	switch p {
	case PrimBool, PrimInt8:
		return 1
	case PrimInt16:
		return 2
	case PrimInt32, PrimFloat32:
		return 4
	case PrimInt64, PrimFloat64:
		return 8
	default:
		return 0
	}
}

func (p Prim) String() string {
	switch p {
	case PrimBool:
		return "bool"
	case PrimInt8:
		return "int8"
	case PrimInt16:
		return "int16"
	case PrimInt32:
		return "int32"
	case PrimInt64:
		return "int64"
	case PrimFloat32:
		return "float32"
	case PrimFloat64:
		return "float64"
	default:
		return fmt.Sprintf("Prim(%d)", int(p))
	}
}

// SizeType is the classification result of the analysis (§3.1).
type SizeType int

const (
	// StaticFixed (SFST): identical, immutable data-size across all instances.
	StaticFixed SizeType = iota
	// RuntimeFixed (RFST): per-instance data-size fixed after construction.
	RuntimeFixed
	// Variable (VST): data-size may change after construction.
	Variable
	// RecurDef: recursively-defined type; never decomposable.
	RecurDef
)

func (s SizeType) String() string {
	switch s {
	case StaticFixed:
		return "StaticFixed"
	case RuntimeFixed:
		return "RuntimeFixed"
	case Variable:
		return "Variable"
	case RecurDef:
		return "RecurDef"
	default:
		return fmt.Sprintf("SizeType(%d)", int(s))
	}
}

// Decomposable reports whether objects of this size-type may be stored in
// compact byte segments (§3.1: only SFSTs and RFSTs are safe).
func (s SizeType) Decomposable() bool {
	return s == StaticFixed || s == RuntimeFixed
}

// Max returns the more variable of two size-types under the total order
// SFST < RFST < VST defined in §3.2. RecurDef dominates everything.
func Max(a, b SizeType) SizeType {
	if a == RecurDef || b == RecurDef {
		return RecurDef
	}
	if a > b {
		return a
	}
	return b
}

// Type is an annotated type descriptor: the static shape of a UDT plus the
// per-field type-sets produced by points-to analysis.
//
// A Type is one of three kinds:
//   - primitive: Prim is set;
//   - array: Elem is the element field (its TypeSet lists the possible
//     runtime element types);
//   - struct: Fields lists the declared fields in order.
type Type struct {
	Name   string
	Kind   Kind
	Prim   Prim     // valid iff Kind == KindPrimitive
	Elem   *Field   // valid iff Kind == KindArray
	Fields []*Field // valid iff Kind == KindStruct
}

// Field describes one field of a struct (or the element pseudo-field of an
// array). Final mirrors Java's final / Scala's val: the reference cannot be
// reassigned after construction. TypeSet is the set of possible runtime
// types of the referenced object, as computed by points-to analysis; it
// defaults to the declared type.
type Field struct {
	Name     string
	Final    bool
	Declared *Type
	TypeSet  []*Type
}

// RuntimeTypes returns the field's type-set, defaulting to the declared
// type when no points-to information was recorded.
func (f *Field) RuntimeTypes() []*Type {
	if len(f.TypeSet) > 0 {
		return f.TypeSet
	}
	if f.Declared != nil {
		return []*Type{f.Declared}
	}
	return nil
}

// String renders a compact, deterministic description of the type.
func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	switch t.Kind {
	case KindPrimitive:
		return t.Prim.String()
	case KindArray:
		return "Array[" + t.elemName() + "]"
	default:
		return t.Name
	}
}

func (t *Type) elemName() string {
	if t.Elem == nil {
		return "?"
	}
	rts := t.Elem.RuntimeTypes()
	if len(rts) == 0 {
		return "?"
	}
	names := make([]string, len(rts))
	for i, rt := range rts {
		names[i] = rt.String()
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// Primitive returns a descriptor for the given primitive kind. Descriptors
// for the same primitive are interchangeable; this returns a shared
// instance so graphs stay small.
func Primitive(p Prim) *Type {
	return primitives[p]
}

var primitives = map[Prim]*Type{
	PrimBool:    {Name: "bool", Kind: KindPrimitive, Prim: PrimBool},
	PrimInt8:    {Name: "int8", Kind: KindPrimitive, Prim: PrimInt8},
	PrimInt16:   {Name: "int16", Kind: KindPrimitive, Prim: PrimInt16},
	PrimInt32:   {Name: "int32", Kind: KindPrimitive, Prim: PrimInt32},
	PrimInt64:   {Name: "int64", Kind: KindPrimitive, Prim: PrimInt64},
	PrimFloat32: {Name: "float32", Kind: KindPrimitive, Prim: PrimFloat32},
	PrimFloat64: {Name: "float64", Kind: KindPrimitive, Prim: PrimFloat64},
}

// ArrayOf returns an array descriptor whose elements are of type elem.
// The element field is final in the reference sense only when the array is
// never grown; per §3.2 array element fields are always treated as
// non-init-only, which the classifier encodes directly, so Final here is
// irrelevant and left false.
func ArrayOf(name string, elem *Type) *Type {
	return &Type{
		Name: name,
		Kind: KindArray,
		Elem: &Field{Name: "elem", Declared: elem, TypeSet: []*Type{elem}},
	}
}

// Struct returns a struct descriptor with the given fields.
func Struct(name string, fields ...*Field) *Type {
	return &Type{Name: name, Kind: KindStruct, Fields: fields}
}

// NewField builds a field with a singleton type-set.
func NewField(name string, typ *Type, final bool) *Field {
	return &Field{Name: name, Final: final, Declared: typ, TypeSet: []*Type{typ}}
}

// StringType returns the descriptor modelling java.lang.String: a struct
// holding a final byte array. Its size-type is RuntimeFixed, which is what
// makes string-bearing rows decomposable with length prefixes.
func StringType() *Type {
	return &Type{
		Name: "String",
		Kind: KindStruct,
		Fields: []*Field{
			NewField("bytes", ArrayOf("Array[int8]", Primitive(PrimInt8)), true),
		},
	}
}
