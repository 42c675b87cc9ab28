package lint

import (
	"go/ast"
	"go/types"
)

// PtrEscape enforces the lifetime rule behind memory.Ptr: a Ptr is an
// offset into its Group's pages, so any copy of it that can outlive the
// Group is a latent use-after-free. The analyzer flags the storage
// shapes that create such copies:
//
//   - package-level variables whose type contains memory.Ptr (a global
//     outlives every Group);
//   - struct fields containing memory.Ptr, unless the field is annotated
//     //deca:owns or the struct also carries a *memory.Group field, its
//     own or an embedded struct's — a guardian whose Release the container
//     is responsible for, which is exactly the DecaBlock / shuffle-container
//     (page store) pattern;
//   - channel types whose element contains memory.Ptr (the receiver's
//     lifetime is unknowable statically);
//   - straight-line use after Release: once g.Release() executes, later
//     statements on the same path must not touch g or byte slices
//     obtained from it — g a Group, or a Slab (a container's index
//     table, manager memory like the pages it points into) — through
//     however many re-slices and typed views (decompose.Float64s). (Reset is
//     deliberately not tracked: the spill-restart pattern reuses a Group
//     after Reset.)
//   - observability payloads: a struct that carries deca/internal/obs
//     types (an event, a batch of events, a Kind) is instrumentation
//     data, and may carry page or group *identifiers* only — a
//     memory.Ptr or *memory.Group field in such a struct would let the
//     event stream extend page lifetimes past their stage. The Group
//     guardian exemption deliberately does not apply here: in an event
//     payload a Group field is the leak, not the owner.
//
// The defining package deca/internal/memory is exempt — it is the
// implementation being guarded, not a client of it.
var PtrEscape = &Analyzer{
	Name: "ptrescape",
	Doc:  "memory.Ptr and page-backed bytes must not outlive their Group or be used after Release",
	Run:  runPtrEscape,
}

const memoryPkg = "deca/internal/memory"
const obsPkg = "deca/internal/obs"
const decomposePkg = "deca/internal/decompose"

func runPtrEscape(p *Pass) {
	if p.Pkg.PkgPath == memoryPkg {
		return
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				checkPtrGlobals(p, d)
				checkPtrFields(p, d)
				checkObsPayloads(p, d)
			case *ast.FuncDecl:
				if d.Body != nil {
					checkUseAfterRelease(p, d.Body)
				}
			}
		}
		// Channel types anywhere in the file (fields, vars, make calls).
		ast.Inspect(f, func(n ast.Node) bool {
			ch, ok := n.(*ast.ChanType)
			if !ok {
				return true
			}
			if tv, ok := p.Pkg.Info.Types[ch.Value]; ok && containsPtr(tv.Type) {
				p.Reportf(ch.Pos(),
					"channel of Ptr-bearing type %s: the receiver's lifetime is unbounded relative to the Group; send indexes or copies instead", tv.Type)
			}
			return false
		})
	}
}

// checkPtrGlobals flags package-level vars holding memory.Ptr.
func checkPtrGlobals(p *Pass, d *ast.GenDecl) {
	for _, spec := range d.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, name := range vs.Names {
			obj, ok := p.Pkg.Info.Defs[name].(*types.Var)
			if !ok || obj.Parent() != p.Pkg.Types.Scope() {
				continue
			}
			if containsPtr(obj.Type()) {
				p.Reportf(name.Pos(),
					"package-level %s holds memory.Ptr, which outlives every Group; keep Ptrs inside Group-guarded owners", name.Name)
			}
		}
	}
}

// checkPtrFields flags Ptr-bearing struct fields in structs that carry
// neither a //deca:owns marker on the field nor a *memory.Group guardian
// field.
func checkPtrFields(p *Pass, d *ast.GenDecl) {
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		if holdsGroup(p.Pkg.Info.TypeOf(st), true) {
			continue
		}
		for _, field := range st.Fields.List {
			tv, ok := p.Pkg.Info.Types[field.Type]
			if !ok || !containsPtr(tv.Type) {
				continue
			}
			for _, name := range field.Names {
				if p.Ann.OwnsFields[fieldKey(p.Pkg.Types.Path(), ts.Name.Name, name.Name)] {
					continue
				}
				p.Reportf(name.Pos(),
					"field %s.%s holds memory.Ptr but the struct has no *memory.Group guardian field; add one or annotate the field //deca:owns",
					ts.Name.Name, name.Name)
			}
		}
	}
}

// holdsGroup reports whether struct type t carries a *memory.Group
// guardian: as a field of its own or, with embedded set, inside a struct
// it embeds — the shuffle containers' page store, whose Release is the
// embedder's.
func holdsGroup(t types.Type, embedded bool) bool {
	s, _ := typeDeref(t).Underlying().(*types.Struct)
	for i := 0; s != nil && i < s.NumFields(); i++ {
		f := s.Field(i)
		if isNamed(f.Type(), memoryPkg, "Group") || embedded && f.Embedded() && holdsGroup(f.Type(), false) {
			return true
		}
	}
	return false
}

// checkObsPayloads flags memory.Ptr / *memory.Group fields in structs
// that also carry deca/internal/obs types: such a struct is an
// observability payload, and events may carry page/group identifiers
// (ids, counts, byte sizes) but never the page-backed objects
// themselves — instrumentation must not extend object lifetimes. Unlike
// checkPtrFields, a *memory.Group field is not a guardian here: the
// payload's lifetime is the event stream's, not the stage's.
func checkObsPayloads(p *Pass, d *ast.GenDecl) {
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		isPayload := false
		for _, field := range st.Fields.List {
			if tv, ok := p.Pkg.Info.Types[field.Type]; ok && containsObsType(tv.Type) {
				isPayload = true
				break
			}
		}
		if !isPayload {
			continue
		}
		for _, field := range st.Fields.List {
			tv, ok := p.Pkg.Info.Types[field.Type]
			if !ok {
				continue
			}
			var bad string
			switch {
			case containsPtr(tv.Type):
				bad = "memory.Ptr"
			case containsGroup(tv.Type):
				bad = "*memory.Group"
			default:
				continue
			}
			pos := field.Type.Pos()
			fieldName := "embedded field"
			if len(field.Names) > 0 {
				pos = field.Names[0].Pos()
				fieldName = field.Names[0].Name
			}
			p.Reportf(pos,
				"observability payload %s carries %s in %s; events may carry page/group identifiers, never the objects",
				ts.Name.Name, bad, fieldName)
		}
	}
}

// containsObsType reports whether t involves a named type from
// deca/internal/obs (Event, Kind, a slice of them, ...). A struct the type
// holds is not entered: a payload carries obs types itself.
func containsObsType(t types.Type) bool {
	return reaches(t, false, func(t types.Type) bool {
		n := namedType(t)
		return n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == obsPkg
	})
}

// containsGroup reports whether t transitively contains memory.Group
// (typically behind a pointer).
func containsGroup(t types.Type) bool {
	return reaches(t, true, func(t types.Type) bool { return isNamed(t, memoryPkg, "Group") })
}

// containsPtr reports whether t transitively contains memory.Ptr.
func containsPtr(t types.Type) bool {
	return reaches(t, true, func(t types.Type) bool { return isNamed(t, memoryPkg, "Ptr") })
}

// reaches reports whether is holds for t or for a type t reaches through
// named types, pointers, slices, arrays, maps and, with fields set, struct
// fields. A channel's element is reached only inside an instantiated
// generic type — freelist.List[T]'s chan T, which no source line of the
// checked package spells out; a chan type written in it is the channel
// rule's to report, and only once.
func reaches(t types.Type, fields bool, is func(types.Type) bool) bool {
	seen := make(map[types.Type]bool)
	var walk func(t types.Type, generic bool) bool
	walk = func(t types.Type, generic bool) bool {
		t = types.Unalias(t)
		if seen[t] {
			return false
		}
		seen[t] = true
		if is(t) {
			return true
		}
		switch t := t.(type) {
		case *types.Named:
			return walk(t.Underlying(), generic || t.TypeArgs().Len() > 0)
		case *types.Pointer:
			return walk(t.Elem(), generic)
		case *types.Slice:
			return walk(t.Elem(), generic)
		case *types.Array:
			return walk(t.Elem(), generic)
		case *types.Map:
			return walk(t.Key(), generic) || walk(t.Elem(), generic)
		case *types.Chan:
			return generic && walk(t.Elem(), generic)
		case *types.Struct:
			for i := 0; fields && i < t.NumFields(); i++ {
				if walk(t.Field(i).Type(), generic) {
					return true
				}
			}
		}
		return false
	}
	return walk(t, false)
}

//
// Straight-line use-after-Release.
//

// checkUseAfterRelease walks a function body tracking Groups and Slabs
// released by a direct g.Release() statement; any later reference to g —
// or to a byte slice previously derived from g — on the same path is
// flagged.
// Branches are walked with a copy of the released set, so a conditional
// release does not poison the join.
func checkUseAfterRelease(p *Pass, body *ast.BlockStmt) {
	derived := make(map[types.Object]types.Object) // byte var → source group
	walkReleased(p, body.List, make(map[types.Object]bool), derived)
}

func walkReleased(p *Pass, stmts []ast.Stmt, released map[types.Object]bool, derived map[types.Object]types.Object) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.ExprStmt:
			if obj := groupReleaseTarget(p, s.X); obj != nil {
				released[obj] = true
				continue
			}
			reportReleasedUses(p, s, released, derived)
		case *ast.AssignStmt:
			// RHS reads first, then note derivations and rebinds.
			for _, r := range s.Rhs {
				reportReleasedUses(p, r, released, derived)
			}
			for i, l := range s.Lhs {
				if obj := identObj(p.Pkg.Info, l); obj != nil {
					delete(released, obj)
					delete(derived, obj)
					if i < len(s.Rhs) {
						if src := byteDerivation(p, s.Rhs[i], derived); src != nil {
							derived[obj] = src
						}
					}
				}
			}
		case *ast.BlockStmt:
			walkReleased(p, s.List, released, derived)
		case *ast.IfStmt:
			if s.Init != nil {
				walkReleased(p, []ast.Stmt{s.Init}, released, derived)
			}
			reportReleasedUses(p, s.Cond, released, derived)
			walkReleased(p, s.Body.List, cloneSet(released), derived)
			if s.Else != nil {
				walkReleased(p, []ast.Stmt{s.Else}, cloneSet(released), derived)
			}
		case *ast.ForStmt:
			walkReleased(p, s.Body.List, cloneSet(released), derived)
		case *ast.RangeStmt:
			reportReleasedUses(p, s.X, released, derived)
			walkReleased(p, s.Body.List, cloneSet(released), derived)
		case *ast.SwitchStmt:
			for _, b := range caseBodies(s.Body) {
				walkReleased(p, b, cloneSet(released), derived)
			}
		case *ast.TypeSwitchStmt:
			for _, b := range caseBodies(s.Body) {
				walkReleased(p, b, cloneSet(released), derived)
			}
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				reportReleasedUses(p, r, released, derived)
			}
		case *ast.DeferStmt, *ast.GoStmt:
			// Deferred releases run at function exit; not straight-line.
		default:
			reportReleasedUsesStmt(p, s, released, derived)
		}
	}
}

func cloneSet(m map[types.Object]bool) map[types.Object]bool {
	c := make(map[types.Object]bool, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// isPageMemory reports whether t is one of the two owners of manager
// memory: a page group or a slab.
func isPageMemory(t types.Type) bool {
	return isNamed(t, memoryPkg, "Group") || isNamed(t, memoryPkg, "Slab")
}

// groupReleaseTarget matches a statement-level g.Release() where g is a
// *memory.Group or memory.Slab variable, returning g's object.
func groupReleaseTarget(p *Pass, e ast.Expr) types.Object {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Release" {
		return nil
	}
	obj := identObj(p.Pkg.Info, sel.X)
	if obj == nil || !isPageMemory(obj.Type()) {
		return nil
	}
	return obj
}

// byteDerivation ties an expression to the group or slab whose memory it
// is: a g.Alloc/Bytes/CheckedBytes/Page call (Bytes is a Slab's too), a
// variable already derived, a slice expression of either (page[a:b]), or a
// typed view of them — decompose.Float64s/Int64s return their second
// argument by another name. nil when e is nobody's bytes.
func byteDerivation(p *Pass, e ast.Expr, derived map[types.Object]types.Object) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return derived[p.Pkg.Info.ObjectOf(e)]
	case *ast.SliceExpr:
		return byteDerivation(p, e.X, derived)
	case *ast.CallExpr:
		if f := calleeFunc(p.Pkg.Info, e); f != nil && f.Pkg() != nil && f.Pkg().Path() == decomposePkg &&
			(f.Name() == "Float64s" || f.Name() == "Int64s") && len(e.Args) == 2 {
			return byteDerivation(p, e.Args[1], derived)
		}
		sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		switch sel.Sel.Name {
		case "Alloc", "Bytes", "CheckedBytes", "Page":
			if obj := identObj(p.Pkg.Info, sel.X); obj != nil && isPageMemory(obj.Type()) {
				return obj
			}
		}
	}
	return nil
}

func reportReleasedUses(p *Pass, n ast.Node, released map[types.Object]bool, derived map[types.Object]types.Object) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false // closure bodies run later; not straight-line
		}
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		obj := p.Pkg.Info.ObjectOf(id)
		if obj == nil {
			return true
		}
		if released[obj] {
			p.Reportf(id.Pos(), "use of %s %q after Release on this path", memoryKind(obj), id.Name)
			delete(released, obj) // one report per object per path
		} else if src, ok := derived[obj]; ok && released[src] {
			p.Reportf(id.Pos(), "use of %q, bytes of %s %q, after its Release", id.Name, memoryKind(src), src.Name())
			delete(derived, obj)
		}
		return true
	})
}

// memoryKind names what obj is for a diagnostic: "group" or "slab".
func memoryKind(obj types.Object) string {
	if isNamed(obj.Type(), memoryPkg, "Slab") {
		return "slab"
	}
	return "group"
}

// reportReleasedUsesStmt applies the ident scan to statements with no
// special handling, without descending into nested blocks (those arrive
// via the walker).
func reportReleasedUsesStmt(p *Pass, s ast.Stmt, released map[types.Object]bool, derived map[types.Object]types.Object) {
	switch s.(type) {
	case *ast.BlockStmt, *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt,
		*ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return
	}
	reportReleasedUses(p, s, released, derived)
}
