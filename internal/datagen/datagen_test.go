package datagen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"iter"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func TestWordsDeterministic(t *testing.T) {
	a := Words(1, 100, 10, 50)
	b := Words(1, 100, 10, 50)
	if len(a) != 50 {
		t.Fatalf("len = %d, want 50", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must produce identical lines")
		}
	}
	c := Words(2, 100, 10, 50)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestWordsShape(t *testing.T) {
	lines := Words(7, 10, 5, 20)
	distinct := map[string]bool{}
	for _, l := range lines {
		ws := strings.Fields(l)
		if len(ws) != 5 {
			t.Fatalf("line has %d words, want 5", len(ws))
		}
		for _, w := range ws {
			distinct[w] = true
		}
	}
	if len(distinct) > 10 {
		t.Errorf("vocabulary %d exceeds distinctKeys 10", len(distinct))
	}
	if len(distinct) < 5 {
		t.Errorf("vocabulary %d suspiciously small", len(distinct))
	}
}

func TestPoints(t *testing.T) {
	pts := Points(3, 100, 8)
	if len(pts) != 100 {
		t.Fatalf("len = %d", len(pts))
	}
	pos, neg := 0, 0
	for _, p := range pts {
		if len(p.Features) != 8 {
			t.Fatalf("dim = %d, want 8", len(p.Features))
		}
		switch p.Label {
		case 1:
			pos++
		case -1:
			neg++
		default:
			t.Fatalf("label = %v", p.Label)
		}
	}
	if pos == 0 || neg == 0 {
		t.Errorf("degenerate labels: %d pos, %d neg", pos, neg)
	}
}

func TestVectors(t *testing.T) {
	vecs := Vectors(4, 60, 5, 3)
	if len(vecs) != 60 {
		t.Fatalf("len = %d", len(vecs))
	}
	for _, v := range vecs {
		if len(v) != 5 {
			t.Fatalf("dim = %d", len(v))
		}
	}
}

func TestGraphShape(t *testing.T) {
	edges := Graph(5, 1000, 5000, 0.6)
	if len(edges) != 5000 {
		t.Fatalf("edges = %d", len(edges))
	}
	deg := map[int64]int{}
	for _, e := range edges {
		if e.Src < 0 || e.Src >= 1000 || e.Dst < 0 || e.Dst >= 1000 {
			t.Fatalf("vertex out of range: %+v", e)
		}
		if e.Src == e.Dst {
			t.Fatalf("self loop: %+v", e)
		}
		deg[e.Src]++
	}
	// Power-law-ish skew: the max out-degree should far exceed the mean.
	maxDeg := 0
	for _, d := range deg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	mean := float64(len(edges)) / float64(len(deg))
	if float64(maxDeg) < 3*mean {
		t.Errorf("degree distribution not skewed: max=%d mean=%.1f", maxDeg, mean)
	}
}

func TestGraphBadSkewDefaults(t *testing.T) {
	edges := Graph(5, 100, 50, -1)
	if len(edges) != 50 {
		t.Fatal("bad skew should still generate")
	}
}

func TestRankings(t *testing.T) {
	rows := Rankings(9, 200)
	if len(rows) != 200 {
		t.Fatalf("rows = %d", len(rows))
	}
	over100 := 0
	for _, r := range rows {
		if r.PageRank < 0 || r.PageRank >= 1000 {
			t.Fatalf("rank out of range: %d", r.PageRank)
		}
		if !strings.HasPrefix(r.PageURL, "http://") {
			t.Fatalf("bad URL: %q", r.PageURL)
		}
		if r.PageRank > 100 {
			over100++
		}
	}
	// Query 1 (rank > 100) must select a nontrivial subset.
	if over100 == 0 || over100 == len(rows) {
		t.Errorf("query-1 selectivity degenerate: %d of %d", over100, len(rows))
	}
}

func TestUserVisits(t *testing.T) {
	rows := UserVisits(11, 300)
	if len(rows) != 300 {
		t.Fatalf("rows = %d", len(rows))
	}
	prefixes := map[string]bool{}
	for _, r := range rows {
		if r.AdRevenue < 0 || r.AdRevenue > 10 {
			t.Fatalf("revenue out of range: %v", r.AdRevenue)
		}
		if len(r.SourceIP) < 7 {
			t.Fatalf("bad IP %q", r.SourceIP)
		}
		p := r.SourceIP
		if len(p) > 5 {
			p = p[:5]
		}
		prefixes[p] = true
	}
	// Query 2 groups by SUBSTR(sourceIP,1,5); need multiple groups but far
	// fewer than rows.
	if len(prefixes) < 2 || len(prefixes) >= len(rows) {
		t.Errorf("group cardinality degenerate: %d groups over %d rows", len(prefixes), len(rows))
	}
}

// appendWord replaced fmt.Appendf("%07x"): the bytes must not change (the
// WordCount goldens and closed form hash them) and no call may allocate.
func TestAppendWordMatchesFmt(t *testing.T) {
	for _, i := range []int{0, 1, 15, 16, 255, 256, 640_000, 1<<28 - 1, 1 << 28, 1<<31 - 1, 1 << 40} {
		if got, want := string(appendWord(nil, i)), fmt.Sprintf("w%07x", i); got != want {
			t.Errorf("appendWord(%d) = %q, want %q", i, got, want)
		}
	}
	buf := make([]byte, 0, 32)
	if n := testing.AllocsPerRun(100, func() { buf = appendWord(buf[:0], 123_456) }); n != 0 {
		t.Errorf("appendWord allocates %v times per call, want 0", n)
	}
}

// TestStreamsMatchSlices: each XSeq yields what X returns, again on a
// second walk (the RNG is seeded per walk, not per Seq), and stops when
// told to. The last record of each is pinned to what the slice-building
// generators produced before the streaming forms existed: one RNG call
// out of order anywhere in the partition would move it. A streamed line,
// point or vector is valid only until the next yield, so the walk clones
// each one it keeps.
func TestStreamsMatchSlices(t *testing.T) {
	pinned := map[int64]struct {
		word   string
		point  LabeledPoint
		vector []float64
		edge   Edge
	}{
		1: {
			"w0000312 w0000033 w000004c",
			LabeledPoint{Label: -1, Features: []float64{-0.5416893383425935, 0.5755625449863215, -0.3981076746813823}},
			[]float64{6.556484565037507, 9.561925541690824, 6.451007360432804},
			Edge{Src: 79, Dst: 410},
		},
		42: {
			"w00000ad w00002fa w0000183",
			LabeledPoint{Label: 1, Features: []float64{-0.8368636989791505, 1.46354847819623, -0.01877754467542303}},
			[]float64{1.346745824341113, 0.5697315134084935, 4.294247489897851},
			Edge{Src: 171, Dst: 579},
		},
	}
	const n = 50
	ownPoint := func(p LabeledPoint) LabeledPoint { return LabeledPoint{p.Label, slices.Clone(p.Features)} }
	ownVector := slices.Clone[[]float64]
	for seed, want := range pinned {
		checkStream(t, "Words", WordsSeq(seed, 1000, 3, n), slices.Clone[[]byte], lineBytes(Words(seed, 1000, 3, n)), []byte(want.word))
		checkStream(t, "Points", PointsSeq(seed, n, 3), ownPoint, Points(seed, n, 3), want.point)
		checkStream(t, "Vectors", VectorsSeq(seed, n, 3, 4), ownVector, Vectors(seed, n, 3, 4), want.vector)
		checkStream(t, "Graph", GraphSeq(seed, 1000, n, 0.6), asIs[Edge], Graph(seed, 1000, n, 0.6), want.edge)
	}
}

// checkStream collects stream through own, which gives the kept record the
// memory it may not borrow from the walk.
func checkStream[T any](t *testing.T, name string, stream iter.Seq[T], own func(T) T, slice []T, last T) {
	t.Helper()
	for walk := 1; walk <= 2; walk++ {
		var got []T
		for v := range stream {
			got = append(got, own(v))
		}
		if !reflect.DeepEqual(got, slice) {
			t.Errorf("%s: walk %d of the stream differs from the slice form", name, walk)
		}
	}
	if got := slice[len(slice)-1]; !reflect.DeepEqual(got, last) {
		t.Errorf("%s: last record %v, pinned %v", name, got, last)
	}
	seen := 0
	for range stream {
		if seen++; seen == 3 {
			break
		}
	}
	if seen != 3 {
		t.Errorf("%s: stream yielded %d records before a stop at 3", name, seen)
	}
}

func asIs[T any](v T) T { return v }

func lineBytes(lines []string) [][]byte {
	out := make([][]byte, len(lines))
	for i, l := range lines {
		out[i] = []byte(l)
	}
	return out
}

// TestWordsLinesUnchanged: Words returns, byte for byte, the lines it
// returned when WordsSeq yielded a fresh string per line. The WordCount
// goldens, the baselines' checksums and bench/e2e's closed form are sums
// over these lines; the digests were taken before the stream reused its
// buffer. The second case's keys pass 16⁷, so some of its words are nine
// bytes and its lines differ in length.
func TestWordsLinesUnchanged(t *testing.T) {
	for _, c := range []struct {
		seed                              int64
		distinctKeys, wordsPerLine, lines int
		sha256                            string
	}{
		{7, 200, 8, 400, "c1cfd1a8285e79be04d8fa1e93085fc340b7eadea3c67003e3a1d2a8c880bbb4"},
		{1, 1 << 30, 10, 3000, "919e6a29ad92fd1ecd1166c81dcc1ed6696513df4c04da3c5553af964c693e47"},
		{3, 640_000, 10, 2000, "73dc2284c2d129ce981d002a76717a4bf1806e0a19e56302e6d33a5a774b9a46"},
	} {
		h := sha256.New()
		for _, l := range Words(c.seed, c.distinctKeys, c.wordsPerLine, c.lines) {
			h.Write([]byte(l + "\n"))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.sha256 {
			t.Errorf("Words(%d, %d, %d, %d) digest %s, want %s", c.seed, c.distinctKeys, c.wordsPerLine, c.lines, got, c.sha256)
		}
	}
}

// TestStreamsUnchanged: PointsSeq, VectorsSeq and GraphSeq yield, bit for
// bit, the records they yielded when every walk built its own random
// source; the digests were taken before walks recycled them. Each walk runs
// twice, so the second draws from a reseeded source.
func TestStreamsUnchanged(t *testing.T) {
	for _, c := range []struct {
		name   string
		walk   func(put func(...float64))
		sha256 string
	}{
		{"PointsSeq(1, 2000, 10)", func(put func(...float64)) {
			for p := range PointsSeq(1, 2000, 10) {
				put(p.Label)
				put(p.Features...)
			}
		}, "0ae5fc144c50b7985060ca08ccd7502d878429adacbbd618b0c0e19ef609ef57"},
		{"VectorsSeq(3, 2000, 10, 8)", func(put func(...float64)) {
			for v := range VectorsSeq(3, 2000, 10, 8) {
				put(v...)
			}
		}, "6abe34a6b8e2dc3dc5e9cd987e225bc896328a1a79f0a950c0adab9907a4da2f"},
		{"GraphSeq(1, 5000, 20000, 0.6)", func(put func(...float64)) {
			for e := range GraphSeq(1, 5000, 20000, 0.6) {
				put(float64(e.Src), float64(e.Dst))
			}
		}, "b5500a7ee508d815e016d18350d10425214e22eacc37fd4d3cda0a60e29d78eb"},
	} {
		for walk := range 2 {
			h := sha256.New()
			c.walk(func(xs ...float64) {
				for _, x := range xs {
					h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)))
				}
			})
			if got := hex.EncodeToString(h.Sum(nil)); got != c.sha256 {
				t.Errorf("%s, walk %d: digest %s, want %s", c.name, walk+1, got, c.sha256)
			}
		}
	}
}

// TestVectorStreamsAllocatePerWalk: a walk of WordsSeq, PointsSeq or
// VectorsSeq allocates one buffer (VectorsSeq its centers too), and its RNG
// when the free list has none, however many records it yields — the line or vector is overwritten for
// every record.
func TestVectorStreamsAllocatePerWalk(t *testing.T) {
	const n, d, k = 10_000, 10, 8
	walks := map[string]func(n int) func(){
		"WordsSeq": func(n int) func() {
			return func() {
				for line := range WordsSeq(1, 640_000, d, n) {
					sinkBytes = line
				}
			}
		},
		"PointsSeq": func(n int) func() {
			return func() {
				for p := range PointsSeq(1, n, d) {
					sinkF64 = p.Features
				}
			}
		},
		"VectorsSeq": func(n int) func() {
			return func() {
				for v := range VectorsSeq(1, n, d, k) {
					sinkF64 = v
				}
			}
		},
	}
	for name, walk := range walks {
		one := testing.AllocsPerRun(5, walk(1))
		long := testing.AllocsPerRun(5, walk(n))
		if long != one {
			t.Errorf("%s: a %d-record walk makes %v allocations, a 1-record walk %v", name, n, long, one)
		}
	}
}

var (
	sinkF64   []float64
	sinkBytes []byte
)

// TestSliceFormsOwnTheirVectors: Points and Vectors hand out vectors that
// share no memory, so overwriting one record leaves every other intact.
func TestSliceFormsOwnTheirVectors(t *testing.T) {
	const n, d = 40, 3
	vecs := map[string]func() [][]float64{
		"Points": func() [][]float64 {
			var out [][]float64
			for _, p := range Points(7, n, d) {
				out = append(out, p.Features)
			}
			return out
		},
		"Vectors": func() [][]float64 { return Vectors(7, n, d, 4) },
	}
	for name, form := range vecs {
		got, want := form(), form()
		for i := range got {
			for j := range got[i] {
				got[i][j] = -1e9
			}
			for k := i + 1; k < len(got); k++ {
				if !slices.Equal(got[k], want[k]) {
					t.Fatalf("%s: overwriting record %d changed record %d", name, i, k)
				}
			}
		}
	}
}

// TestAppendWordIsFmt: the direct seven-digit path and the path above 2^28
// both write fmt's "w%07x".
func TestAppendWordIsFmt(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	is := []int{0, 15, 16, 1<<28 - 1, 1 << 28, 1<<28 + 1, 1 << 40}
	for range 10000 {
		is = append(is, r.Intn(1<<28), r.Intn(1<<36))
	}
	for _, i := range is {
		if got, want := string(appendWord([]byte("x"), i)), "x"+fmt.Sprintf("w%07x", i); got != want {
			t.Fatalf("appendWord(%d) = %q, want %q", i, got, want)
		}
	}
}
