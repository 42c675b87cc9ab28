package lint

import (
	"regexp"
	"testing"
)

// The golden harness type-checks a testdata package, runs exactly one
// analyzer over it, and matches the diagnostics against `want "..."`
// comments: every diagnostic must land on a line whose want-substring it
// contains, and every want must be consumed. Suppression problems
// (analyzer "lint") participate like any other diagnostic, so the
// fixtures also pin the suppression contract.

var wantRe = regexp.MustCompile(`want "([^"]+)"`)

type wantKey struct {
	file string
	line int
}

func runGolden(t *testing.T, a *Analyzer, dir, pkgName string, deps ...string) {
	t.Helper()
	pkg, err := LoadDir("testdata/"+dir, pkgName, deps...)
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	for _, e := range pkg.TypeErrors {
		t.Errorf("fixture must type-check: %v", e)
	}

	wants := make(map[wantKey][]string)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					pos := pkg.Fset.Position(c.Pos())
					k := wantKey{pos.Filename, pos.Line}
					wants[k] = append(wants[k], m[1])
				}
			}
		}
	}

	diags := Run([]*Package{pkg}, []*Analyzer{a})
	for _, d := range diags {
		k := wantKey{d.Pos.Filename, d.Pos.Line}
		matched := false
		for i, w := range wants[k] {
			if containsSubstr(d.Message, w) {
				wants[k] = append(wants[k][:i], wants[k][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			t.Errorf("%s:%d: expected diagnostic containing %q, got none", k.file, k.line, w)
		}
	}
}

func containsSubstr(s, sub string) bool {
	return len(sub) > 0 && regexp.QuoteMeta(sub) != "" &&
		regexp.MustCompile(regexp.QuoteMeta(sub)).MatchString(s)
}

func TestReleasePairGolden(t *testing.T) {
	runGolden(t, ReleasePair, "releasepair", "releasepair",
		"deca/internal/memory", "deca/internal/transport")
}

func TestPtrEscapeGolden(t *testing.T) {
	runGolden(t, PtrEscape, "ptrescape", "ptrescape",
		"deca/internal/decompose", "deca/internal/memory", "deca/internal/obs")
}

func TestDeterminismGolden(t *testing.T) {
	runGolden(t, Determinism, "determinism", "determinism")
}

func TestWireSafeGolden(t *testing.T) {
	runGolden(t, WireSafe, "wiresafe", "wiresafe")
}
