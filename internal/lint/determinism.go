package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"deca/internal/chaos"
)

// Determinism guards the purity of fault-coordinate and placement
// decisions. The chaos harness's reproducibility contract — same seed,
// same faults, across -race, process restarts, and the multiprocess
// runner — holds only if those decision functions compute from their
// inputs alone. Inside a checked function the analyzer forbids:
//
//   - wall-clock reads and timer construction (time.Now, Since, Until,
//     After, Sleep, Tick, NewTimer, NewTicker);
//   - package-level math/rand and math/rand/v2 calls (process-global
//     state seeded who-knows-where);
//   - ranging over a map (Go randomizes iteration order by design, so
//     any branch downstream of it is nondeterministic).
//
// Which functions are checked is not ad hoc: chaos.PureDecisionFuncs is
// the single documented manifest of decision paths, and //deca:pure
// annotations must match it — a manifest entry without the annotation,
// an annotated chaos/sched function missing from the manifest, or an entry
// naming a chaos/sched function that is no longer declared, is itself a
// diagnostic. Packages outside chaos/sched may opt functions in
// with //deca:pure alone. The check is intra-procedural: calls out to
// unannotated helpers are not followed, so keep decision arithmetic in
// the annotated function.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "fault-coordinate and placement decisions must be pure (no clock, no global rand, no map iteration)",
	Run:  runDeterminism,
}

// manifestPackages are the packages whose //deca:pure annotations must
// round-trip through chaos.PureDecisionFuncs.
var manifestPackages = map[string]bool{
	"deca/internal/chaos": true,
	"deca/internal/sched": true,
}

func runDeterminism(p *Pass) {
	manifest := make(map[string]bool, len(chaos.PureDecisionFuncs))
	for _, name := range chaos.PureDecisionFuncs {
		manifest[name] = true
	}
	declared := make(map[string]bool)
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			name := FuncName(obj)
			declared[name] = true
			if fd.Body == nil {
				continue
			}
			annotated := p.Ann.Pure[name]
			listed := manifest[name]
			if listed && !annotated {
				p.Reportf(fd.Name.Pos(),
					"%s is in chaos.PureDecisionFuncs but is not annotated //deca:pure; annotate the declaration", fd.Name.Name)
			}
			if annotated && !listed && manifestPackages[p.Pkg.PkgPath] {
				p.Reportf(fd.Name.Pos(),
					"%s is annotated //deca:pure but missing from chaos.PureDecisionFuncs; the manifest is the single source of truth — add it there", fd.Name.Name)
			}
			if annotated || listed {
				checkPurity(p, fd)
			}
		}
	}
	if !manifestPackages[p.Pkg.PkgPath] || len(p.Pkg.Files) == 0 {
		return
	}
	// A stale entry has no declaration to report at; the package clause
	// stands in for it.
	for _, name := range chaos.PureDecisionFuncs {
		if strings.HasPrefix(name, p.Pkg.PkgPath+".") && !declared[name] {
			p.Reportf(p.Pkg.Files[0].Name.Pos(),
				"chaos.PureDecisionFuncs lists %s, which is not declared; delete the entry with the function", name)
		}
	}
}

// checkPurity scans one decision function's body for the forbidden
// nondeterminism sources.
func checkPurity(p *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(p.Pkg.Info, n)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			pkg, name := fn.Pkg().Path(), fn.Name()
			if pkg == "time" && forbiddenTimeFuncs[name] {
				p.Reportf(n.Pos(),
					"pure decision function %s calls time.%s; fault coordinates must not depend on the wall clock", fd.Name.Name, name)
			}
			if (pkg == "math/rand" || pkg == "math/rand/v2") && fn.Type().(*types.Signature).Recv() == nil {
				p.Reportf(n.Pos(),
					"pure decision function %s calls global %s.%s; derive randomness from the seeded fault-coordinate hash instead", fd.Name.Name, pathBase(pkg), name)
			}
		case *ast.RangeStmt:
			if tv, ok := p.Pkg.Info.Types[n.X]; ok {
				if _, isMap := types.Unalias(tv.Type).Underlying().(*types.Map); isMap {
					p.Reportf(n.Pos(),
						"pure decision function %s ranges over a map; iteration order is randomized — sort the keys or restructure", fd.Name.Name)
				}
			}
		}
		return true
	})
}

var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"Sleep": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

func pathBase(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}
