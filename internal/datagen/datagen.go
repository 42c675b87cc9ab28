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
)

// The partition-sized generators come in two forms that draw from the RNG
// in the same order: XSeq streams the records one at a time, so a consumer
// that stores them elsewhere (a cache block, a shuffle buffer) never holds
// the partition twice, and X collects the same stream into a slice.

// collect gathers a stream of n records.
func collect[T any](n int, seq iter.Seq[T]) []T {
	return slices.AppendSeq(make([]T, 0, n), seq)
}

// WordsSeq streams space-separated word lines. distinctKeys controls the
// vocabulary size — the paper varies 10M vs 100M keys to grow the shuffle
// hash table; wordsPerLine and numLines control volume.
func WordsSeq(seed int64, distinctKeys, wordsPerLine, numLines int) iter.Seq[string] {
	return func(yield func(string) bool) {
		r := rand.New(rand.NewSource(seed))
		var buf []byte
		for i := 0; i < numLines; i++ {
			buf = buf[:0]
			for w := 0; w < wordsPerLine; w++ {
				if w > 0 {
					buf = append(buf, ' ')
				}
				buf = appendWord(buf, r.Intn(distinctKeys))
			}
			if !yield(string(buf)) {
				return
			}
		}
	}
}

// Words is WordsSeq as a slice.
func Words(seed int64, distinctKeys, wordsPerLine, numLines int) []string {
	return collect(numLines, WordsSeq(seed, distinctKeys, wordsPerLine, numLines))
}

// appendWord renders key i (non-negative) as a pronounceable-ish
// fixed-alphabet token, like RandomWriter's random keys but deterministic
// per index: 'w' then i in hex, zero-padded to 7 digits — fmt's "w%07x",
// without the interface box fmt allocates per call.
func appendWord(dst []byte, i int) []byte {
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
// Gaussian-ish clusters so LR has signal to fit. Every point owns a fresh
// Features vector.
func PointsSeq(seed int64, n, d int) iter.Seq[LabeledPoint] {
	return func(yield func(LabeledPoint) bool) {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			label := float64(1)
			shift := 0.5
			if r.Intn(2) == 0 {
				label = -1
				shift = -0.5
			}
			f := make([]float64, d)
			for j := range f {
				f[j] = r.NormFloat64() + shift
			}
			if !yield(LabeledPoint{Label: label, Features: f}) {
				return
			}
		}
	}
}

// Points is PointsSeq as a slice.
func Points(seed int64, n, d int) []LabeledPoint {
	return collect(n, PointsSeq(seed, n, d))
}

// VectorsSeq streams n unlabeled vectors of dimension d around k cluster
// centers, for KMeans.
func VectorsSeq(seed int64, n, d, k int) iter.Seq[[]float64] {
	return func(yield func([]float64) bool) {
		r := rand.New(rand.NewSource(seed))
		centers := make([][]float64, k)
		for c := range centers {
			centers[c] = make([]float64, d)
			for j := range centers[c] {
				centers[c][j] = r.Float64() * 10
			}
		}
		for i := 0; i < n; i++ {
			c := centers[r.Intn(k)]
			v := make([]float64, d)
			for j := range v {
				v[j] = c[j] + r.NormFloat64()*0.5
			}
			if !yield(v) {
				return
			}
		}
	}
}

// Vectors is VectorsSeq as a slice.
func Vectors(seed int64, n, d, k int) [][]float64 {
	return collect(n, VectorsSeq(seed, n, d, k))
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
		r := rand.New(rand.NewSource(seed))
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
	r := rand.New(rand.NewSource(seed))
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
	r := rand.New(rand.NewSource(seed))
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
