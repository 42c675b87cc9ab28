package core

import (
	"fmt"

	"deca/internal/udt"
)

// Layout is the compiled byte layout of a decomposable UDT. For a
// StaticFixed type every primitive field has a constant offset, computed
// exactly as Deca's synthesized SUDTs compute them: fields in declaration
// order, raw primitive widths, no object headers and no references
// (Figure 2). For a RuntimeFixed type the layout is sequential with each
// variable-length array preceded by a uint32 element count; offsets are
// computed per instance at access time, mirroring the synthesized
// data-size methods of Appendix B.
type Layout struct {
	Type     *udt.Type
	SizeType udt.SizeType

	// FixedSize is the constant byte size of every instance; valid only
	// when SizeType == StaticFixed.
	FixedSize int

	scalars map[string]ScalarSlot
	arrays  map[string]ArraySlot
}

// ScalarSlot locates one primitive field in a StaticFixed layout.
type ScalarSlot struct {
	Path   string // dotted field path from the root, e.g. "features.label"
	Offset int
	Prim   udt.Prim
}

// ArraySlot locates one fixed-length primitive array in a StaticFixed
// layout.
type ArraySlot struct {
	Path     string
	Offset   int
	Count    int
	ElemPrim udt.Prim
}

// ElemSize returns the byte width of one element.
func (a ArraySlot) ElemSize() int { return a.ElemPrim.Size() }

// ElemOffset returns the byte offset of element i.
func (a ArraySlot) ElemOffset(i int) int { return a.Offset + i*a.ElemPrim.Size() }

// CompileLayout builds the layout of t under the given classification.
// lengths binds the static element counts of fixed-length arrays (the
// resolved symbolic constants from the global analysis); it is required
// for StaticFixed types containing arrays and ignored otherwise. Types
// classified Variable or RecurDef cannot be compiled: decomposing them is
// unsafe, which is the whole point of the classification (§3.1).
func CompileLayout(t *udt.Type, sizeType udt.SizeType, lengths udt.Lengths) (*Layout, error) {
	if !sizeType.Decomposable() {
		return nil, fmt.Errorf("core: %s is %s and cannot be safely decomposed", t, sizeType)
	}
	l := &Layout{
		Type:     t,
		SizeType: sizeType,
		scalars:  make(map[string]ScalarSlot),
		arrays:   make(map[string]ArraySlot),
	}
	if sizeType == udt.StaticFixed {
		size, err := udt.StaticDataSize(t, lengths)
		if err != nil {
			return nil, err
		}
		l.FixedSize = size
		if err := l.flatten(t, "", 0, lengths); err != nil {
			return nil, err
		}
	} else {
		l.FixedSize = -1
	}
	return l, nil
}

// flatten assigns offsets to every primitive slot of a StaticFixed type.
func (l *Layout) flatten(t *udt.Type, path string, off int, lengths udt.Lengths) error {
	switch t.Kind {
	case udt.KindPrimitive:
		l.scalars[path] = ScalarSlot{Path: path, Offset: off, Prim: t.Prim}
		return nil
	case udt.KindArray:
		elem := singleRuntimeType(t.Elem)
		if elem == nil {
			return fmt.Errorf("core: array %s has an ambiguous element type-set", t.Name)
		}
		n, ok := lengths[t.Name]
		if !ok {
			return fmt.Errorf("core: no length bound for array %s", t.Name)
		}
		if elem.Kind == udt.KindPrimitive {
			l.arrays[path] = ArraySlot{Path: path, Offset: off, Count: n, ElemPrim: elem.Prim}
			return nil
		}
		elemSize, err := udt.StaticDataSize(elem, lengths)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			p := fmt.Sprintf("%s[%d]", path, i)
			if err := l.flatten(elem, p, off+i*elemSize, lengths); err != nil {
				return err
			}
		}
		return nil
	default:
		for _, f := range t.Fields {
			ft := singleRuntimeType(f)
			if ft == nil {
				return fmt.Errorf("core: field %s.%s has an ambiguous type-set", t.Name, f.Name)
			}
			p := f.Name
			if path != "" {
				p = path + "." + f.Name
			}
			if err := l.flatten(ft, p, off, lengths); err != nil {
				return err
			}
			fs, err := udt.StaticDataSize(ft, lengths)
			if err != nil {
				return err
			}
			off += fs
		}
		return nil
	}
}

// singleRuntimeType returns the field's sole runtime type, or nil when the
// type-set is empty or ambiguous. Static layouts require unambiguous
// shapes; a multi-type type-set of identical data-sizes still has no
// single field order, so it is rejected at compile time.
func singleRuntimeType(f *udt.Field) *udt.Type {
	rts := f.RuntimeTypes()
	if len(rts) != 1 {
		return nil
	}
	return rts[0]
}

// Scalar returns the slot of the primitive field at the dotted path. It
// panics on unknown paths: layouts are compiled from the same descriptors
// the accessing code is generated from, so a miss is a programming error.
func (l *Layout) Scalar(path string) ScalarSlot {
	s, ok := l.scalars[path]
	if !ok {
		panic(fmt.Sprintf("core: no scalar slot %q in layout of %s", path, l.Type))
	}
	return s
}

// Array returns the slot of the fixed-length primitive array at the dotted
// path.
func (l *Layout) Array(path string) ArraySlot {
	a, ok := l.arrays[path]
	if !ok {
		panic(fmt.Sprintf("core: no array slot %q in layout of %s", path, l.Type))
	}
	return a
}

// NumSlots returns the number of scalar and array slots (diagnostics).
func (l *Layout) NumSlots() (scalars, arrays int) {
	return len(l.scalars), len(l.arrays)
}
