package bench

import (
	"strings"
	"testing"

	"deca/internal/workloads"
)

// Every experiment must run end-to-end at tiny scale and produce a
// non-empty report. This is the integration test of the whole stack:
// datagen → engine → workloads/sqlmini → measurement → formatting.
func TestAllExperimentsRunAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take a few seconds even at tiny scale")
	}
	opts := Options{Scale: 0.02, Base: workloads.Config{SpillDir: t.TempDir(), Parallelism: 2}}
	for _, exp := range All() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			rep, err := exp.Run(opts)
			if err != nil {
				t.Fatalf("%s: %v", exp.ID, err)
			}
			if len(rep.Rows) == 0 {
				t.Fatalf("%s: empty report", exp.ID)
			}
			s := rep.String()
			if !strings.Contains(s, exp.ID) || !strings.Contains(s, "paper:") {
				t.Errorf("%s: malformed report:\n%s", exp.ID, s)
			}
		})
	}
}

func TestFind(t *testing.T) {
	if _, ok := Find("table3"); !ok {
		t.Error("Find(table3) failed")
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find(nope) should fail")
	}
}

func TestOptionsScaled(t *testing.T) {
	o := Options{Scale: 0.5}
	if got := o.scaled(100); got != 50 {
		t.Errorf("scaled(100) = %d", got)
	}
	if got := o.scaled(1); got != 1 {
		t.Errorf("scaled floor broken: %d", got)
	}
	o = Options{}.withDefaults()
	if o.Scale != 1 || o.Base.Parallelism != 4 {
		t.Errorf("defaults: %+v", o)
	}
}
