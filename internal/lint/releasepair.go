package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// ReleasePair enforces the engine's paired-release discipline: a value
// returned by an owned-resource producer — Manager.NewGroup,
// Manager.NewSlab, Manager.RestoreGroup, MapGroup, MapFile, and any
// function annotated //deca:owns (engine.DecaBlockFor's and LookupFor's
// release funcs among them) — must, on every path out of the acquiring
// function, either be released (x.Release(), or calling the returned
// release func, directly or deferred) or be handed off: returned to the
// caller, stored into a //deca:owns-annotated field, placed in a
// container, or passed to another function (AdoptPages, MergeFrom, and
// anything annotated //deca:transfers are the documented hand-offs).
//
// The obligation also runs the other way across a //deca:transfers
// boundary: inside a function so annotated, every resource-typed parameter
// is the function's own from entry — a staged shuffle frame handed to a
// container's Fold owns a restored page group until it is folded or
// released — and must be released or handed on along every path, the
// error returns included.
//
// The analysis is intra-procedural and deliberately biased against false
// positives: aliasing, closures that capture the resource, and passing
// it to any call all count as hand-offs. What remains is the real bug
// class PRs 2–5 kept fixing by hand — acquire, hit an error, return
// without releasing.
var ReleasePair = &Analyzer{
	Name: "releasepair",
	Doc:  "owned resources must be released on all paths or explicitly handed off",
	Run:  runReleasePair,
}

// builtinOwns are the producers the engine is built around; constructors
// elsewhere join the set with a //deca:owns annotation.
var builtinOwns = map[string]bool{
	"deca/internal/memory.Manager.NewGroup":     true,
	"deca/internal/memory.Manager.NewSlab":      true,
	"deca/internal/memory.Manager.RestoreGroup": true,
	"deca/internal/memory.MapGroup":             true,
	"deca/internal/memory.MapFile":              true,
	"deca/internal/transport.NewFrameSegments":  true,
}

// builtinOwnsFieldCalls are func-typed fields whose *invocation* produces
// an owned resource — the Payload.Segments hand-off: every call builds a
// fresh FrameSegments the serve path must Release exactly once.
var builtinOwnsFieldCalls = map[string]bool{
	"deca/internal/transport.Payload.Segments": true,
}

// builtinTransfers are the documented ownership hand-off calls.
var builtinTransfers = map[string]bool{
	"deca/internal/memory.Group.AdoptPages": true,
	"deca/internal/memory.Group.AddDep":     true,
}

func runReleasePair(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			rp := &releaseWalker{p: p}
			rp.walkFunc(fd.Body, transferredParams(p, fd))
		}
	}
}

// ownState tracks one resource's lifecycle inside a function.
type ownState int

const (
	stLive ownState = iota
	stDead          // released, handed off, or escaped
)

// tracked is one producer result being followed.
type tracked struct {
	obj    types.Object
	desc   string       // producer description for diagnostics
	pos    token.Pos    // acquisition site
	errObj types.Object // sibling error result, if the producer has one
}

// ownMap is the walker state: resource object → lifecycle.
type ownMap map[types.Object]ownState

func (m ownMap) clone() ownMap {
	c := make(ownMap, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// releaseWalker performs the path-sensitive walk of one function body.
type releaseWalker struct {
	p *Pass
	// resources indexes every acquisition seen so far by object.
	resources map[types.Object]*tracked
}

// walkFunc walks one function body; owned are the resources it holds on
// entry (a //deca:transfers function's parameters).
func (w *releaseWalker) walkFunc(body *ast.BlockStmt, owned []types.Object) {
	w.resources = make(map[types.Object]*tracked)
	// Closures get their own walk, once each; deeper nesting recurses.
	for _, fl := range topLevelFuncLits(body) {
		inner := &releaseWalker{p: w.p}
		inner.walkFunc(fl.Body, nil)
	}
	st := make(ownMap)
	for _, obj := range owned {
		w.resources[obj] = &tracked{obj: obj, desc: "transferred parameter", pos: obj.Pos()}
		st[obj] = stLive
	}
	st, terminated := w.walkStmts(body.List, st, nil)
	if !terminated {
		w.checkLeaks(st, nil, body.Rbrace)
	}
}

// transferredParams returns the resource-typed parameters of a
// //deca:transfers function: the annotation promises callers the callee
// takes them over, so the callee is checked for keeping that promise.
func transferredParams(p *Pass, fd *ast.FuncDecl) []types.Object {
	fn, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok || !p.Ann.Transfers[FuncName(fn)] {
		return nil
	}
	var out []types.Object
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if obj := p.Pkg.Info.Defs[name]; obj != nil && name.Name != "_" && hasReleaseMethod(obj.Type()) {
				out = append(out, obj)
			}
		}
	}
	return out
}

// topLevelFuncLits collects the outermost function literals in a body.
func topLevelFuncLits(body *ast.BlockStmt) []*ast.FuncLit {
	var out []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			out = append(out, fl)
			return false
		}
		return true
	})
	return out
}

// walkStmts processes a statement sequence, returning the out-state and
// whether the sequence definitely terminates (return/panic).
func (w *releaseWalker) walkStmts(stmts []ast.Stmt, st ownMap, guards []types.Object) (ownMap, bool) {
	for _, s := range stmts {
		var terminated bool
		st, terminated = w.walkStmt(s, st, guards)
		if terminated {
			return st, true
		}
	}
	return st, false
}

func (w *releaseWalker) walkStmt(s ast.Stmt, st ownMap, guards []types.Object) (ownMap, bool) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		w.walkAssign(s, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					w.bindProducers(exprIdents(vs.Names), vs.Values, st)
					for _, v := range vs.Values {
						w.escapeUses(v, st, true)
					}
				}
			}
		}
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if obj := w.releaseTarget(call); obj != nil {
				st[obj] = stDead
				return st, false
			}
			if isPanicCall(call) {
				return st, true
			}
		}
		w.escapeUses(s.X, st, false)
	case *ast.DeferStmt:
		if obj := w.releaseTarget(s.Call); obj != nil {
			st[obj] = stDead
			return st, false
		}
		w.escapeUses(s.Call, st, false)
	case *ast.GoStmt:
		w.escapeUses(s.Call, st, false)
	case *ast.SendStmt:
		w.escapeUses(s.Value, st, true)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.escapeUses(r, st, true)
		}
		w.checkLeaks(st, guards, s.Pos())
		return st, true
	case *ast.BranchStmt:
		// break/continue/goto: treat as path end without a leak check —
		// the loop's merge handles the rest conservatively.
		return st, true
	case *ast.BlockStmt:
		return w.walkStmts(s.List, st, guards)
	case *ast.IfStmt:
		return w.walkIf(s, st, guards)
	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = w.walkStmt(s.Init, st, guards)
		}
		body := st.clone()
		body, _ = w.walkStmts(s.Body.List, body, guards)
		mergeAnyDead(st, body)
	case *ast.RangeStmt:
		w.escapeUses(s.X, st, false)
		body := st.clone()
		body, _ = w.walkStmts(s.Body.List, body, guards)
		mergeAnyDead(st, body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = w.walkStmt(s.Init, st, guards)
		}
		w.walkCaseBodies(caseBodies(s.Body), st, guards)
	case *ast.TypeSwitchStmt:
		w.walkCaseBodies(caseBodies(s.Body), st, guards)
	case *ast.SelectStmt:
		var bodies [][]ast.Stmt
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				bodies = append(bodies, cc.Body)
			}
		}
		w.walkCaseBodies(bodies, st, guards)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, st, guards)
	}
	return st, false
}

// walkIf handles branch merge and producer-error guards.
func (w *releaseWalker) walkIf(s *ast.IfStmt, st ownMap, guards []types.Object) (ownMap, bool) {
	if s.Init != nil {
		st, _ = w.walkStmt(s.Init, st, guards)
	}
	w.escapeUses(s.Cond, st, false)
	thenGuards := append(append([]types.Object(nil), guards...), errObjectsIn(w.p, s.Cond)...)

	thenSt := st.clone()
	thenSt, thenTerm := w.walkStmts(s.Body.List, thenSt, thenGuards)

	elseSt := st.clone()
	elseTerm := false
	if s.Else != nil {
		elseSt, elseTerm = w.walkStmt(s.Else, elseSt, guards)
	}
	switch {
	case thenTerm && elseTerm:
		return st, true
	case thenTerm:
		return elseSt, false
	case elseTerm:
		return thenSt, false
	default:
		mergeAnyDead(thenSt, elseSt)
		return thenSt, false
	}
}

func (w *releaseWalker) walkCaseBodies(bodies [][]ast.Stmt, st ownMap, guards []types.Object) {
	for _, b := range bodies {
		c := st.clone()
		c, _ = w.walkStmts(b, c, guards)
		mergeAnyDead(st, c)
	}
}

// mergeAnyDead folds src into dst, preferring dead: a resource released
// or handed off on any completed branch is not reported later. This is
// deliberately unsound in the quiet direction.
func mergeAnyDead(dst, src ownMap) {
	for obj, v := range src {
		if v == stDead {
			dst[obj] = stDead
		} else if _, ok := dst[obj]; !ok {
			dst[obj] = v
		}
	}
}

func caseBodies(body *ast.BlockStmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			out = append(out, cc.Body)
		}
	}
	return out
}

// walkAssign binds producer results and processes hand-offs. Order
// matters: hand-offs of tracked RHS values first, then rebind kills for
// the LHS, and producer binding last so a fresh `b := NewX()` is not
// killed by its own LHS.
func (w *releaseWalker) walkAssign(s *ast.AssignStmt, st ownMap) {
	// Any tracked resource read on the RHS is handed off: stored into a
	// field, a container, an alias — all deliberate moves. Field stores
	// additionally demand the //deca:owns annotation on the target.
	for i, r := range s.Rhs {
		if obj := identObj(w.p.Pkg.Info, r); obj != nil {
			if _, tracked := w.resources[obj]; tracked {
				if st[obj] == stLive && i < len(s.Lhs) {
					w.checkFieldStore(s.Lhs[i], w.resources[obj].desc)
				}
				st[obj] = stDead
				continue
			}
		}
		w.escapeUses(r, st, true)
	}
	// Rebinding a variable ends tracking of its old value.
	for _, l := range s.Lhs {
		if obj := identObj(w.p.Pkg.Info, l); obj != nil {
			if _, ok := st[obj]; ok {
				st[obj] = stDead
			}
		}
	}
	w.bindProducers(s.Lhs, s.Rhs, st)
}

// checkFieldStore requires //deca:owns on a field a live resource (desc
// says which) is stored into; it reports whether lhs is a field at all.
func (w *releaseWalker) checkFieldStore(lhs ast.Expr, desc string) bool {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	selection, ok := w.p.Pkg.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return false
	}
	field, ok := selection.Obj().(*types.Var)
	if !ok || field.Pkg() == nil {
		return false
	}
	owner := selection.Recv() // a promoted field is annotated where it is declared
	for _, i := range selection.Index()[:len(selection.Index())-1] {
		owner = typeDeref(owner).Underlying().(*types.Struct).Field(i).Type()
	}
	recv := namedType(owner)
	if recv == nil {
		return false
	}
	key := fieldKey(field.Pkg().Path(), recv.Obj().Name(), field.Name())
	if !w.p.Ann.OwnsFields[key] {
		w.p.Reportf(lhs.Pos(),
			"owned %s stored into field %s.%s, which is not annotated //deca:owns; annotate the field or release the resource here",
			desc, recv.Obj().Name(), field.Name())
	}
	return true
}

// bindProducers matches producer calls on the RHS to LHS identifiers.
func (w *releaseWalker) bindProducers(lhs, rhs []ast.Expr, st ownMap) {
	if len(rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := calleeFunc(w.p.Pkg.Info, call)
	var sig *types.Signature
	var prodName string
	if fn != nil {
		name := FuncName(fn)
		if !builtinOwns[name] && !w.p.Ann.Owns[name] {
			return
		}
		sig = fn.Type().(*types.Signature)
		prodName = fn.Name()
	} else {
		// Calls through func-typed values resolve to no *types.Func; the
		// one producer of that shape is a known field (Payload.Segments).
		field := fieldCallee(w.p.Pkg.Info, call)
		if field == nil {
			return
		}
		key := fieldKey(field.pkg, field.recv, field.name)
		if !builtinOwnsFieldCalls[key] {
			return
		}
		sig = field.sig
		prodName = field.recv + "." + field.name
	}
	resIdx, errIdx := resourceResults(sig)
	if resIdx < 0 {
		return
	}
	var errObj types.Object
	if errIdx >= 0 && errIdx < len(lhs) {
		errObj = identObj(w.p.Pkg.Info, lhs[errIdx])
	}
	if resIdx >= len(lhs) {
		return // resource bundled into a single multi-value context; out of scope
	}
	obj := identObj(w.p.Pkg.Info, lhs[resIdx])
	if obj == nil && w.checkFieldStore(lhs[resIdx], "result of "+prodName) {
		return // produced straight into a field: the field's owner holds it from here
	}
	if obj == nil || obj.Name() == "_" {
		w.p.Reportf(call.Pos(),
			"result of %s is an owned resource but is discarded; bind and release it", prodName)
		return
	}
	w.resources[obj] = &tracked{
		obj: obj, desc: fmt.Sprintf("result of %s", prodName),
		pos: call.Pos(), errObj: errObj,
	}
	st[obj] = stLive
}

// calledField describes a call through a func-typed struct field.
type calledField struct {
	pkg, recv, name string
	sig             *types.Signature
}

// fieldCallee resolves a call whose callee is a func-typed field
// selector (p.Segments(...)), or nil.
func fieldCallee(info *types.Info, call *ast.CallExpr) *calledField {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return nil
	}
	field, ok := selection.Obj().(*types.Var)
	if !ok || field.Pkg() == nil {
		return nil
	}
	sig, ok := types.Unalias(field.Type()).(*types.Signature)
	if !ok {
		return nil
	}
	recv := namedType(selection.Recv())
	if recv == nil {
		return nil
	}
	return &calledField{
		pkg: field.Pkg().Path(), recv: recv.Obj().Name(), name: field.Name(), sig: sig,
	}
}

// resourceResults picks which producer result carries the release
// obligation: a bare func() result wins (DecaBlockFor's release),
// otherwise the first result with a Release method. The error result
// index is returned for nil-on-error reasoning.
func resourceResults(sig *types.Signature) (resIdx, errIdx int) {
	resIdx, errIdx = -1, -1
	results := sig.Results()
	for i := 0; i < results.Len(); i++ {
		t := results.At(i).Type()
		if types.Identical(t, types.Universe.Lookup("error").Type()) {
			errIdx = i
			continue
		}
		if isReleaseFunc(t) {
			return i, errIdxScan(results)
		}
		if resIdx < 0 && hasReleaseMethod(t) {
			resIdx = i
		}
	}
	return resIdx, errIdx
}

func errIdxScan(results *types.Tuple) int {
	for i := 0; i < results.Len(); i++ {
		if types.Identical(results.At(i).Type(), types.Universe.Lookup("error").Type()) {
			return i
		}
	}
	return -1
}

// isReleaseFunc reports whether t is a bare func() — the shape of a
// returned release/unpin closure.
func isReleaseFunc(t types.Type) bool {
	sig, ok := types.Unalias(t).(*types.Signature)
	return ok && sig.Params().Len() == 0 && sig.Results().Len() == 0
}

// releaseTarget reports the tracked object a call releases: obj.Release()
// or a call of a tracked release-func value.
func (w *releaseWalker) releaseTarget(call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fun.Sel.Name == "Release" && len(call.Args) == 0 {
			if obj := identObj(w.p.Pkg.Info, fun.X); obj != nil {
				if _, ok := w.resources[obj]; ok {
					return obj
				}
			}
		}
	case *ast.Ident:
		if len(call.Args) == 0 {
			if obj := w.p.Pkg.Info.ObjectOf(fun); obj != nil {
				if _, ok := w.resources[obj]; ok {
					return obj
				}
			}
		}
	}
	return nil
}

// escapeUses marks tracked resources read inside e as handed off. When
// argsOnly is false the expression's own identifier counts too (method
// receivers do not: calling a method on a resource is a use, not a
// hand-off).
func (w *releaseWalker) escapeUses(e ast.Expr, st ownMap, includeBare bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A closure capturing a tracked resource is a hand-off (the
			// deferred-cleanup idiom); every mention inside counts,
			// method receivers included.
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := w.p.Pkg.Info.ObjectOf(id); obj != nil {
						if _, tracked := w.resources[obj]; tracked {
							st[obj] = stDead
						}
					}
				}
				return true
			})
			return false
		case *ast.SelectorExpr:
			// A selector on a resource (method call, field read) is a use,
			// not an escape; don't descend into X when it is a bare ident.
			if _, ok := ast.Unparen(n.X).(*ast.Ident); ok {
				return false
			}
		case *ast.Ident:
			obj := w.p.Pkg.Info.ObjectOf(n)
			if obj == nil {
				return true
			}
			if _, tracked := w.resources[obj]; tracked {
				if includeBare || !isRootExpr(e, n) {
					st[obj] = stDead
				}
			}
		}
		return true
	})
}

// isRootExpr reports whether id is the entire expression e (modulo
// parens).
func isRootExpr(e ast.Expr, id *ast.Ident) bool {
	return ast.Unparen(e) == id
}

// checkLeaks reports resources still live at a path exit, unless the
// exit sits under the resource's own producer-error guard (the producer
// returns a nil resource alongside a non-nil error; RestoreGroup-style
// producers release internally).
func (w *releaseWalker) checkLeaks(st ownMap, guards []types.Object, pos token.Pos) {
	for obj, state := range st {
		if state != stLive {
			continue
		}
		res := w.resources[obj]
		if res == nil {
			continue
		}
		if res.errObj != nil && containsObj(guards, res.errObj) {
			continue
		}
		w.p.Reportf(pos,
			"%s %q (acquired at %s) may not be released on this path; release it, hand it off, or annotate the transfer",
			res.desc, obj.Name(), w.p.Pkg.Fset.Position(res.pos))
	}
}

func containsObj(objs []types.Object, o types.Object) bool {
	for _, x := range objs {
		if x == o {
			return true
		}
	}
	return false
}

// errObjectsIn collects error-typed objects referenced by a condition —
// the `err != nil` guard shape.
func errObjectsIn(p *Pass, cond ast.Expr) []types.Object {
	var out []types.Object
	ast.Inspect(cond, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := p.Pkg.Info.ObjectOf(id); obj != nil {
				if types.Identical(obj.Type(), types.Universe.Lookup("error").Type()) {
					out = append(out, obj)
				}
			}
		}
		return true
	})
	return out
}

func isPanicCall(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

func exprIdents(names []*ast.Ident) []ast.Expr {
	out := make([]ast.Expr, len(names))
	for i, n := range names {
		out[i] = n
	}
	return out
}
