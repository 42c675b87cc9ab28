// Command unlinked fails on a function under internal/ (any build tag) that
// no cmd, examples or bench/e2e binary links and the allow-list does not
// name, and on an entry that a binary links or that is gone, so the list only
// shrinks. Inlining is off, as an inlined function leaves no symbol.
//
//	go run ./.github/unlinked .github/unlinked.allow
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
)

var (
	reasons  = []string{"observer", "reference", "lifetime", "pinned", "twin", "stringer", "harness"} // the allow-list defines them
	brackets = regexp.MustCompile(`\[[^][]*\]`)
	closure  = regexp.MustCompile(`\.(func|deferwrap|gowrap)?[0-9]+(\..*)?$`)
	bin      string // the binaries' directory; check removes it on the way out
)

func main() {
	if len(os.Args) != 2 {
		check(fmt.Errorf("usage: unlinked ALLOWLIST"))
	}
	allow, err := os.ReadFile(os.Args[1])
	check(err)
	allowed := map[string]bool{}
	for n, line := range strings.Split(string(allow), "\n") {
		if f := strings.Fields(line); len(f) > 0 && !strings.HasPrefix(f[0], "#") {
			if len(f) < 3 || !strings.HasSuffix(f[1], ":") || !slices.Contains(reasons, strings.TrimSuffix(f[1], ":")) {
				check(fmt.Errorf("%s:%d: want \"key reason: why\" with a reason from %v", os.Args[1], n+1, reasons))
			}
			allowed[f[0]] = true
		}
	}

	bin, err = os.MkdirTemp("", "unlinked")
	check(err)
	run("go", "build", "-gcflags=all=-l", "-o", bin+"/", "./cmd/...", "./examples/...")
	run("go", "build", "-C", "bench/e2e", "-gcflags=all=-l", "-o", filepath.Join(bin, "e2e"), ".")
	binaries, err := filepath.Glob(filepath.Join(bin, "*"))
	check(err)
	linked := map[string]bool{}
	for _, line := range strings.Split(run("go", append([]string{"tool", "nm"}, binaries...)...), "\n") {
		// Given several files, nm starts each line with "file:".
		if f := strings.Fields(line); len(f) >= 4 && (f[2] == "T" || f[2] == "t") && strings.HasPrefix(f[3], "deca/internal/") {
			linked[key(strings.TrimPrefix(strings.Join(f[3:], " "), "deca/internal/"))] = true
		}
	}

	declared := map[string]string{} // key -> file:line
	fset := token.NewFileSet()
	files := run("go", "list", "-f", `{{range .GoFiles}}{{$.ImportPath}}/{{.}} {{end}}{{range .IgnoredGoFiles}}{{$.ImportPath}}/{{.}} {{end}}`, "./internal/...")
	for _, path := range strings.Fields(strings.ReplaceAll(files, "deca/internal/", "internal/")) {
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		check(err)
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name != "init" && !strings.HasSuffix(path, "_test.go") {
				name := fn.Name.Name
				if fn.Recv != nil {
					name = types.ExprString(fn.Recv.List[0].Type) + "." + name
				}
				declared[key(strings.TrimPrefix(filepath.Dir(path), "internal/")+"."+name)] = fset.Position(fn.Pos()).String()
			}
		}
	}

	var problems []string
	for k, where := range declared {
		if !linked[k] && !allowed[k] {
			problems = append(problems, k+" is linked into no binary ("+where+"): give it a caller in a binary or delete it")
		}
	}
	for k := range allowed {
		if _, ok := declared[k]; !ok || linked[k] {
			problems = append(problems, k+" is allow-listed but a binary now links it or it is no longer declared: remove its entry")
		}
	}
	slices.Sort(problems)
	fmt.Printf("%d functions under internal/, %d allow-listed as linked into no binary\n", len(declared), len(allowed))
	if len(problems) > 0 {
		check(fmt.Errorf("%s", strings.Join(problems, "\n")))
	}
	os.RemoveAll(bin)
}

// key normalises a symbol or a declaration to pkg.Func or pkg.Type.Method,
// without (*T) or type arguments; a closure names the function it is in.
func key(name string) string {
	for brackets.MatchString(name) {
		name = brackets.ReplaceAllString(name, "")
	}
	return closure.ReplaceAllString(strings.NewReplacer("(", "", ")", "", "*", "", "-fm", "").Replace(name), "")
}

func run(name string, args ...string) string {
	cmd := exec.Command(name, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	check(err)
	return string(out)
}

func check(err error) {
	if err != nil {
		os.RemoveAll(bin)
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
