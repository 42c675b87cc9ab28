//go:build !race

package sqlmini

import (
	"testing"

	"deca/internal/datagen"
	"deca/internal/memory"
)

// TestQuery2AllocatesPerGroup: the columnar and Deca forms of Table 6's
// aggregation allocate per group, not per row, and the row form, whose keys
// are substrings of its rows' fields, not even per group. 40,000 rows fall
// into far fewer IP-prefix groups; a key converted on every row
// (groups[string(b)] += v) costs about one allocation a row.
func TestQuery2AllocatesPerGroup(t *testing.T) {
	rows := datagen.UserVisits(5, 40_000)
	mem := memory.NewManager(1<<16, 0)
	rowT := BuildRowVisits(rows)
	colT := BuildColumnarVisits(rows)
	decaT := BuildDecaVisits(mem, rows)
	defer decaT.Release()

	const perCall = 128 // the map's tables and the sums as they grow: ≈ 100 at 7,669 groups
	for _, q := range []struct {
		name    string
		keyCopy int // allocations a new group's key costs
		run     func() (int, float64)
	}{
		{"rows", 0, func() (int, float64) { return Query2Rows(rowT) }},
		{"columnar", 1, func() (int, float64) { return Query2Columnar(colT) }},
		{"deca", 1, func() (int, float64) { return Query2Deca(decaT) }},
	} {
		groups, _ := q.run()
		if groups >= len(rows)/4 {
			t.Fatalf("%s: %d groups for %d rows; the check needs rows that share a group", q.name, groups, len(rows))
		}
		if n := testing.AllocsPerRun(5, func() { q.run() }); n > float64(q.keyCopy*groups+perCall) {
			t.Errorf("%s: %.0f allocations a call for %d groups over %d rows, want at most %d × groups + %d", q.name, n, groups, len(rows), q.keyCopy, perCall)
		}
	}
}
