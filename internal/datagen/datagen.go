// Package datagen produces deterministic synthetic datasets shaped like
// the paper's inputs (§6): random-word text in the style of Hadoop
// RandomWriter for WordCount, labeled dense feature vectors for LR and
// KMeans (10-dim synthetic and 4096-dim "Amazon image" style), power-law
// graphs standing in for LiveJournal/webbase/HiBench, and Common-Crawl-
// style rankings/uservisits tables for the SQL comparison. Sizes are
// scaled to laptop budgets; the distributional shape (key cardinality,
// dimension, degree skew) is what the experiments depend on.
package datagen

import (
	"fmt"
	"iter"
	"math/rand"
	"slices"
	"strconv"

	"deca/internal/freelist"
)

// The partition-sized generators come in two forms that draw from the RNG
// in the same order: XSeq streams the records one at a time, so a consumer
// that stores them elsewhere (a cache block, a shuffle buffer) never holds
// the partition twice, and X collects the same stream into a slice.
//
// A streamed record lives for one emit. WordsSeq, PointsSeq and VectorsSeq
// allocate one buffer per walk (a line, a vector) and overwrite it for every
// record, so the bytes or vector a record carries are valid until the next
// yield, like bufio.Scanner.Bytes: a consumer that encodes the record before
// asking for the next one (a Deca shuffle buffer, a serialized or Deca cache
// block) costs the heap nothing per record, and one that keeps it (an object
// hash map, an object cache) copies it. Words, Points and Vectors return
// records that own their memory. Under the decapoison build tag each stream
// spoils its buffer after every yield (poison.go), so a consumer that kept a
// record reads garbage instead of a plausible neighbour.

// rngs recycles the generators' random sources: a rand.Rand over a fresh
// source is ≈ 5 KB, and every walk of a stream needs one. A walk gives its
// source back once it ended.
var rngs = freelist.New(8, rngBytes, func() *rand.Rand { return rand.New(rand.NewSource(0)) })

const rngBytes = 5424 // a rand.Rand and its source, as the heap sizes them

// newRand returns a generator seeded with seed: a recycled or fresh one
// reseeded, whose stream is a new source's (Seed resets all of its state).
func newRand(seed int64) *rand.Rand {
	r := rngs.Get()
	r.Seed(seed)
	return r
}

// collect gathers a stream of n records.
func collect[T any](n int, seq iter.Seq[T]) []T {
	return slices.AppendSeq(make([]T, 0, n), seq)
}

// WordsSeq streams space-separated word lines. distinctKeys controls the
// vocabulary size — the paper varies 10M vs 100M keys to grow the shuffle
// hash table; wordsPerLine and numLines control volume. Every line is the
// walk's one buffer, valid until the next yield.
func WordsSeq(seed int64, distinctKeys, wordsPerLine, numLines int) iter.Seq[[]byte] {
	return func(yield func([]byte) bool) {
		r := newRand(seed)
		defer rngs.Put(r)
		buf := make([]byte, 0, 9*wordsPerLine) // a key below 16⁷ is 8 bytes, plus its separator
		for i := 0; i < numLines; i++ {
			buf = buf[:0]
			for w := 0; w < wordsPerLine; w++ {
				if w > 0 {
					buf = append(buf, ' ')
				}
				buf = appendWord(buf, r.Intn(distinctKeys))
			}
			if !yield(buf) {
				return
			}
			spoilLine(buf)
		}
	}
}

// Words is WordsSeq as a slice of lines that own their bytes.
func Words(seed int64, distinctKeys, wordsPerLine, numLines int) []string {
	lines := make([]string, 0, numLines)
	for line := range WordsSeq(seed, distinctKeys, wordsPerLine, numLines) {
		lines = append(lines, string(line))
	}
	return lines
}

// appendWord renders key i (non-negative) as a pronounceable-ish
// fixed-alphabet token, like RandomWriter's random keys but deterministic
// per index: 'w' then i in hex, zero-padded to 7 digits — fmt's "w%07x",
// without the interface box fmt allocates per call. Below 2^28, where the
// padding is exact, the seven digits are written directly.
func appendWord(dst []byte, i int) []byte {
	if i < 1<<28 {
		const x = "0123456789abcdef"
		return append(dst, 'w', x[i>>24], x[i>>20&15], x[i>>16&15], x[i>>12&15], x[i>>8&15], x[i>>4&15], x[i&15])
	}
	var hex [16]byte
	digits := strconv.AppendUint(hex[:0], uint64(i), 16)
	dst = append(dst, "w0000000"[:max(8-len(digits), 1)]...)
	return append(dst, digits...)
}

// LabeledPoint is a training example: a label in {-1, +1} and a dense
// feature vector, mirroring the paper's Figure 1 data model.
type LabeledPoint struct {
	Label    float64
	Features []float64 `deca:"final"`
}

// PointsSeq streams n labeled points of dimension d, drawn from two
// Gaussian-ish clusters so LR has signal to fit. Every point carries the
// walk's one Features vector, valid until the next yield.
func PointsSeq(seed int64, n, d int) iter.Seq[LabeledPoint] {
	return func(yield func(LabeledPoint) bool) {
		r := newRand(seed)
		defer rngs.Put(r)
		f := make([]float64, d)
		for i := 0; i < n; i++ {
			label := float64(1)
			shift := 0.5
			if r.Intn(2) == 0 {
				label = -1
				shift = -0.5
			}
			for j := range f {
				f[j] = r.NormFloat64() + shift
			}
			if !yield(LabeledPoint{Label: label, Features: f}) {
				return
			}
			spoilVector(f)
		}
	}
}

// Points is PointsSeq as a slice; every point owns its Features vector.
func Points(seed int64, n, d int) []LabeledPoint {
	pts := make([]LabeledPoint, 0, n)
	for p := range PointsSeq(seed, n, d) {
		pts = append(pts, LabeledPoint{Label: p.Label, Features: slices.Clone(p.Features)})
	}
	return pts
}

// VectorsSeq streams n unlabeled vectors of dimension d around k cluster
// centers, for KMeans. Every record is the walk's one vector, valid until
// the next yield.
func VectorsSeq(seed int64, n, d, k int) iter.Seq[[]float64] {
	return func(yield func([]float64) bool) {
		r := newRand(seed)
		defer rngs.Put(r)
		centers := make([][]float64, k)
		for c := range centers {
			centers[c] = make([]float64, d)
			for j := range centers[c] {
				centers[c][j] = r.Float64() * 10
			}
		}
		v := make([]float64, d)
		for i := 0; i < n; i++ {
			c := centers[r.Intn(k)]
			for j := range v {
				v[j] = c[j] + r.NormFloat64()*0.5
			}
			if !yield(v) {
				return
			}
			spoilVector(v)
		}
	}
}

// Vectors is VectorsSeq as a slice of vectors that own their backing arrays.
func Vectors(seed int64, n, d, k int) [][]float64 {
	vecs := make([][]float64, 0, n)
	for v := range VectorsSeq(seed, n, d, k) {
		vecs = append(vecs, slices.Clone(v))
	}
	return vecs
}

// Edge is a directed graph edge.
type Edge struct {
	Src int64
	Dst int64
}

// GraphSeq streams numEdges edges over numVertices vertices with a skewed
// (power-law-like) degree distribution, standing in for the paper's
// LiveJournal / webbase / HiBench graphs. Skew in (0,1]: higher
// concentrates edges on fewer hub vertices.
func GraphSeq(seed int64, numVertices int64, numEdges int, skew float64) iter.Seq[Edge] {
	if skew <= 0 || skew > 1 {
		skew = 0.6
	}
	return func(yield func(Edge) bool) {
		r := newRand(seed)
		defer rngs.Put(r)
		for i := 0; i < numEdges; i++ {
			// Power-law-ish sampling: u^(1/skew) concentrates mass near 0.
			src := int64(powSample(r, skew) * float64(numVertices))
			dst := int64(r.Float64() * float64(numVertices))
			if src == dst {
				dst = (dst + 1) % numVertices
			}
			if !yield(Edge{Src: src, Dst: dst}) {
				return
			}
		}
	}
}

// Graph is GraphSeq as a slice.
func Graph(seed int64, numVertices int64, numEdges int, skew float64) []Edge {
	return collect(numEdges, GraphSeq(seed, numVertices, numEdges, skew))
}

func powSample(r *rand.Rand, skew float64) float64 {
	u := r.Float64()
	// Inverse-CDF of a bounded Pareto-like density; exponent tuned so
	// skew≈0.6 yields the heavy-but-not-degenerate tail of social graphs.
	return pow(u, 1/skew+1)
}

func pow(x, p float64) float64 {
	// x^p for x in [0,1], p >= 1, via repeated squaring on the exponent's
	// integer part and a final multiplication for the remainder; precise
	// enough for sampling.
	result := 1.0
	for i := 0; i < int(p); i++ {
		result *= x
	}
	return result
}

// Ranking is one row of the Common-Crawl-style rankings table (§6.6).
type Ranking struct {
	PageURL     string `deca:"final"`
	PageRank    int32
	AvgDuration int32
}

// Rankings generates n ranking rows with ranks in [0, 1000).
func Rankings(seed int64, n int) []Ranking {
	r := newRand(seed)
	defer rngs.Put(r)
	rows := make([]Ranking, n)
	for i := range rows {
		rows[i] = Ranking{
			PageURL:     fmt.Sprintf("http://site-%06d.example.com/page/%04d", r.Intn(n), r.Intn(10000)),
			PageRank:    int32(r.Intn(1000)),
			AvgDuration: int32(r.Intn(600)),
		}
	}
	return rows
}

// UserVisit is one row of the uservisits table (§6.6).
type UserVisit struct {
	SourceIP     string `deca:"final"`
	DestURL      string `deca:"final"`
	VisitDate    int64
	AdRevenue    float64
	UserAgent    string `deca:"final"`
	CountryCode  string `deca:"final"`
	LanguageCode string `deca:"final"`
	SearchWord   string `deca:"final"`
	Duration     int32
}

// UserVisits generates n uservisits rows. Source IPs share a limited
// prefix space so the Query 2 SUBSTR group-by has realistic cardinality.
func UserVisits(seed int64, n int) []UserVisit {
	r := newRand(seed)
	defer rngs.Put(r)
	agents := []string{"Mozilla/5.0", "Chrome/50.0", "Safari/9.1", "curl/7.47"}
	countries := []string{"US", "CN", "DE", "DK", "UK", "FR", "JP", "BR"}
	langs := []string{"en", "zh", "de", "da", "fr", "ja", "pt"}
	words := []string{"vldb", "memory", "gc", "spark", "deca", "lifetime", "page"}
	rows := make([]UserVisit, n)
	for i := range rows {
		rows[i] = UserVisit{
			SourceIP:     fmt.Sprintf("%d.%d.%d.%d", 10+r.Intn(90), r.Intn(256), r.Intn(256), r.Intn(256)),
			DestURL:      fmt.Sprintf("http://site-%06d.example.com/", r.Intn(100000)),
			VisitDate:    int64(1420070400 + r.Intn(100000000)),
			AdRevenue:    r.Float64() * 10,
			UserAgent:    agents[r.Intn(len(agents))],
			CountryCode:  countries[r.Intn(len(countries))],
			LanguageCode: langs[r.Intn(len(langs))],
			SearchWord:   words[r.Intn(len(words))],
			Duration:     int32(r.Intn(1000)),
		}
	}
	return rows
}
