// Package lint is deca-vet's analysis framework: a small, stdlib-only
// (go/ast + go/parser + go/types) static-analysis suite that turns the
// engine's ownership, lifetime, and determinism conventions into
// machine-checked rules. The paper's thesis is that static lifetime
// analysis can replace runtime GC safety; this package applies the same
// idea to the reproduction itself — the manual-memory discipline the
// engine relies on (paired Group.Release, page adoption, pin/unpin,
// Register-replace release) is enforced at build time instead of only by
// convention and -race.
//
// Four analyzers ship (see their files for the precise rules):
//
//   - releasepair: every owned resource is released on all paths or
//     explicitly handed off.
//   - ptrescape: memory.Ptr and page-backed bytes do not outlive their
//     page group, and are not used after Release.
//   - determinism: fault-coordinate and placement decisions stay pure —
//     no wall clock, no global rand, no map-iteration-dependent logic.
//   - wiresafe: wire decoders bounds-guard before indexing, signal
//     truncation with 0 consumed, and every EncodeWire has a decoder.
//
// # Annotation vocabulary
//
//   - "//deca:owns" on a function declaration marks a constructor whose
//     caller owns the returned resource (releasepair tracks its call
//     sites like Manager.NewGroup). On a struct field it marks a
//     sanctioned owner: storing a resource or a memory.Ptr into that
//     field is an intentional hand-off, not an escape.
//   - "//deca:transfers" on a function declaration states that the
//     callee takes ownership of resource-typed arguments (AdoptPages, a
//     shuffle container's Fold of a staged frame). releasepair treats
//     argument passing as a hand-off at the call site, and inside the
//     annotated function holds it to the promise: each such parameter
//     must be released or handed on along every path.
//   - "//deca:pure" on a function declaration opts it into the
//     determinism analyzer. internal/chaos's PureDecisionFuncs manifest
//     is the single source of truth for which chaos/sched decision
//     paths must carry it.
//   - "//deca:allow <analyzer> -- <reason>" on (or immediately above)
//     a flagged line suppresses one analyzer's diagnostics for that
//     line. The reason is mandatory: a suppression without one is
//     itself a diagnostic, so every exception in the tree is justified
//     where it happens.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Analyzer is one named rule set run over a package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Pass)
}

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{ReleasePair, PtrEscape, Determinism, WireSafe}
}

// Diagnostic is one finding, positioned for editors (path:line:col).
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Package is one loaded, type-checked package.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	// TypeErrors collects type-checker complaints; analysis proceeds on a
	// best-effort basis but the driver surfaces them.
	TypeErrors []error
}

// Pass is one analyzer's view of one package plus the module-wide
// annotation table (annotations on another package's declarations are
// visible, so e.g. a //deca:owns constructor in internal/shuffle is a
// producer at its call sites in internal/engine).
type Pass struct {
	Pkg   *Package
	Ann   *Annotations
	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: "",
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the analyzers over the packages and returns the surviving
// diagnostics: suppressed findings are dropped, and malformed or unused
// suppressions become findings of their own. Results are sorted by
// position for stable output.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	ann := CollectAnnotations(pkgs)
	var all []Diagnostic
	for _, pkg := range pkgs {
		sup := collectSuppressions(pkg)
		var pkgDiags []Diagnostic
		for _, a := range analyzers {
			var diags []Diagnostic
			pass := &Pass{Pkg: pkg, Ann: ann, diags: &diags}
			a.Run(pass)
			for i := range diags {
				diags[i].Analyzer = a.Name
			}
			pkgDiags = append(pkgDiags, diags...)
		}
		all = append(all, sup.filter(pkgDiags)...)
		all = append(all, sup.problems()...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return all
}

//
// Suppressions.
//

// suppression is one parsed //deca:allow comment.
type suppression struct {
	pos      token.Position
	analyzer string
	reason   string
	used     bool
}

type suppressions struct {
	// byLine indexes file:line → suppressions that cover that line (the
	// comment's own line and the line after it, so the comment may sit on
	// the flagged line or immediately above it).
	byLine map[string][]*suppression
	all    []*suppression
}

func lineKey(file string, line int) string { return fmt.Sprintf("%s:%d", file, line) }

func collectSuppressions(pkg *Package) *suppressions {
	s := &suppressions{byLine: make(map[string][]*suppression)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//deca:allow")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				sup := &suppression{pos: pos}
				spec, reason, hasReason := strings.Cut(rest, "--")
				sup.analyzer = strings.TrimSpace(spec)
				if hasReason {
					sup.reason = strings.TrimSpace(reason)
				}
				s.all = append(s.all, sup)
				for _, line := range []int{pos.Line, pos.Line + 1} {
					k := lineKey(pos.Filename, line)
					s.byLine[k] = append(s.byLine[k], sup)
				}
			}
		}
	}
	return s
}

// filter drops diagnostics covered by a well-formed suppression, marking
// those suppressions used.
func (s *suppressions) filter(diags []Diagnostic) []Diagnostic {
	var kept []Diagnostic
	for _, d := range diags {
		suppressed := false
		for _, sup := range s.byLine[lineKey(d.Pos.Filename, d.Pos.Line)] {
			if sup.analyzer == d.Analyzer && sup.reason != "" {
				sup.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	return kept
}

// problems reports malformed suppressions: a missing reason or an
// unknown analyzer name. (Unused suppressions are tolerated — analyzers
// evolve — but reasonless ones are not: zero unexplained suppressions is
// the CI contract.)
func (s *suppressions) problems() []Diagnostic {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, sup := range s.all {
		switch {
		case sup.reason == "":
			out = append(out, Diagnostic{Pos: sup.pos, Analyzer: "lint",
				Message: "suppression without a reason; write //deca:allow <analyzer> -- <why this is safe>"})
		case !known[sup.analyzer]:
			out = append(out, Diagnostic{Pos: sup.pos, Analyzer: "lint",
				Message: fmt.Sprintf("suppression names unknown analyzer %q", sup.analyzer)})
		}
	}
	return out
}

//
// Annotations.
//

// Annotations is the module-wide table of //deca: markers, collected in a
// first pass over every loaded package so cross-package references work.
type Annotations struct {
	// Owns holds functions whose resource results the caller owns
	// (constructors), keyed by normalized full name.
	Owns map[string]bool
	// Transfers holds functions that take ownership of resource-typed
	// arguments.
	Transfers map[string]bool
	// Pure holds functions the determinism analyzer must check.
	Pure map[string]bool
	// OwnsFields holds struct fields (as "pkgpath.Type.Field") sanctioned
	// to own resources and page-backed pointers.
	OwnsFields map[string]bool
}

// CollectAnnotations scans every package's declarations for //deca:
// markers.
func CollectAnnotations(pkgs []*Package) *Annotations {
	ann := &Annotations{
		Owns:       make(map[string]bool),
		Transfers:  make(map[string]bool),
		Pure:       make(map[string]bool),
		OwnsFields: make(map[string]bool),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					markers := docMarkers(d.Doc)
					if len(markers) == 0 {
						continue
					}
					obj, ok := pkg.Info.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					name := FuncName(obj)
					for _, m := range markers {
						switch m {
						case "owns":
							ann.Owns[name] = true
						case "transfers":
							ann.Transfers[name] = true
						case "pure":
							ann.Pure[name] = true
						}
					}
				case *ast.GenDecl:
					collectFieldMarkers(pkg, d, ann)
				}
			}
		}
	}
	return ann
}

// collectFieldMarkers finds //deca:owns on struct field declarations
// (doc comment or trailing line comment).
func collectFieldMarkers(pkg *Package, d *ast.GenDecl, ann *Annotations) {
	if d.Tok != token.TYPE {
		return
	}
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		for _, field := range st.Fields.List {
			if !slices.Contains(docMarkers(field.Doc), "owns") && !slices.Contains(docMarkers(field.Comment), "owns") {
				continue
			}
			for _, name := range field.Names {
				ann.OwnsFields[fieldKey(pkg.Types.Path(), ts.Name.Name, name.Name)] = true
			}
		}
	}
}

func fieldKey(pkgPath, typeName, fieldName string) string {
	return pkgPath + "." + typeName + "." + fieldName
}

// docMarkers extracts the //deca:<marker> words from a comment group.
func docMarkers(doc *ast.CommentGroup) []string {
	if doc == nil {
		return nil
	}
	var out []string
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//deca:")
		if !ok {
			continue
		}
		word, _, _ := strings.Cut(rest, " ")
		word = strings.TrimSpace(word)
		if word != "" && word != "allow" {
			out = append(out, word)
		}
	}
	return out
}

//
// Shared type helpers.
//

// FuncName normalizes a function or method to a stable full name:
// generic instantiations collapse to their origin, type parameters and
// pointer markers are stripped, so "(*deca/internal/shuffle.DecaAgg[K,
// V]).MergeFrom" and every instantiation all key as
// "deca/internal/shuffle.DecaAgg.MergeFrom".
func FuncName(f *types.Func) string {
	name := f.Origin().FullName()
	// Drop type-parameter lists: "[K, V]" etc.
	for {
		i := strings.IndexByte(name, '[')
		if i < 0 {
			break
		}
		depth := 0
		j := i
		for ; j < len(name); j++ {
			switch name[j] {
			case '[':
				depth++
			case ']':
				depth--
			}
			if depth == 0 {
				break
			}
		}
		if j >= len(name) {
			break
		}
		name = name[:i] + name[j+1:]
	}
	name = strings.ReplaceAll(name, "(*", "(")
	name = strings.TrimPrefix(name, "(")
	name = strings.ReplaceAll(name, ")", "")
	return name
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (method or function), or nil for calls through function values,
// builtins, and conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	case *ast.IndexExpr: // generic instantiation F[T](...)
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			f, _ := info.Uses[id].(*types.Func)
			return f
		}
	case *ast.IndexListExpr: // F[T1, T2](...)
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			f, _ := info.Uses[id].(*types.Func)
			return f
		}
	}
	return nil
}

// namedType unwraps pointers and aliases down to a *types.Named, or nil.
func namedType(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamed reports whether t (possibly behind a pointer) is the named type
// pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	n := namedType(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

// hasReleaseMethod reports whether t (or *t) has a Release() method with
// no arguments and no results — the engine's resource signature.
func hasReleaseMethod(t types.Type) bool {
	ms := types.NewMethodSet(types.NewPointer(typeDeref(t)))
	for i := 0; i < ms.Len(); i++ {
		f, ok := ms.At(i).Obj().(*types.Func)
		if !ok || f.Name() != "Release" {
			continue
		}
		sig := f.Type().(*types.Signature)
		if sig.Params().Len() == 0 && sig.Results().Len() == 0 {
			return true
		}
	}
	return false
}

func typeDeref(t types.Type) types.Type {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// identObj resolves an identifier expression to its object, seeing
// through parens; nil for anything else.
func identObj(info *types.Info, e ast.Expr) types.Object {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return info.ObjectOf(id)
	}
	return nil
}
