package sqlmini

import (
	"encoding/binary"

	"deca/internal/datagen"
	"deca/internal/decompose"
	"deca/internal/memory"
)

//
// UserVisits representations and Query 2.
//

// RowVisits is the Spark representation: boxed rows.
type RowVisits []*datagen.UserVisit

// BuildRowVisits boxes the rows.
func BuildRowVisits(rows []datagen.UserVisit) RowVisits {
	out := make(RowVisits, len(rows))
	for i := range rows {
		r := rows[i]
		out[i] = &r
	}
	return out
}

// MemBytes estimates the heap footprint.
func (t RowVisits) MemBytes() int64 {
	var total int64
	for _, r := range t {
		total += int64(96 + len(r.SourceIP) + len(r.DestURL) + len(r.UserAgent) +
			len(r.CountryCode) + len(r.LanguageCode) + len(r.SearchWord))
	}
	return total
}

// ColumnarVisits is the Spark SQL columnar store of the columns Query 2
// touches plus the remaining payload columns (kept to make footprints
// honest).
type ColumnarVisits struct {
	VisitDates []int64
	AdRevenues []float64
	Durations  []int32
	IPOffsets  []int32
	IPBytes    []byte
	// Remaining string columns concatenated (URL, agent, country, lang,
	// word share one payload region with a combined offset index).
	PayloadOffsets []int32
	PayloadBytes   []byte
}

// BuildColumnarVisits encodes the rows column-wise.
func BuildColumnarVisits(rows []datagen.UserVisit) *ColumnarVisits {
	c := &ColumnarVisits{
		VisitDates:     make([]int64, len(rows)),
		AdRevenues:     make([]float64, len(rows)),
		Durations:      make([]int32, len(rows)),
		IPOffsets:      make([]int32, len(rows)+1),
		PayloadOffsets: make([]int32, len(rows)+1),
	}
	for i, r := range rows {
		c.VisitDates[i] = r.VisitDate
		c.AdRevenues[i] = r.AdRevenue
		c.Durations[i] = r.Duration
		c.IPBytes = append(c.IPBytes, r.SourceIP...)
		c.IPOffsets[i+1] = int32(len(c.IPBytes))
		c.PayloadBytes = append(c.PayloadBytes, r.DestURL...)
		c.PayloadBytes = append(c.PayloadBytes, r.UserAgent...)
		c.PayloadBytes = append(c.PayloadBytes, r.CountryCode...)
		c.PayloadBytes = append(c.PayloadBytes, r.LanguageCode...)
		c.PayloadBytes = append(c.PayloadBytes, r.SearchWord...)
		c.PayloadOffsets[i+1] = int32(len(c.PayloadBytes))
	}
	return c
}

// MemBytes returns the columnar footprint.
func (c *ColumnarVisits) MemBytes() int64 {
	return int64(8*len(c.VisitDates) + 8*len(c.AdRevenues) + 4*len(c.Durations) +
		4*len(c.IPOffsets) + len(c.IPBytes) + 4*len(c.PayloadOffsets) + len(c.PayloadBytes))
}

// VisitCodec is the Deca layout with fixed-size fields first (Appendix B
// reordering): visitDate@0, adRevenue@8, duration@16, then the six
// length-prefixed strings starting with sourceIP.
type VisitCodec struct{}

func (VisitCodec) FixedSize() int { return -1 }

func (VisitCodec) Size(r datagen.UserVisit) int {
	return 20 + 4 + len(r.SourceIP) + 4 + len(r.DestURL) + 4 + len(r.UserAgent) +
		4 + len(r.CountryCode) + 4 + len(r.LanguageCode) + 4 + len(r.SearchWord)
}

func (VisitCodec) Encode(seg []byte, r datagen.UserVisit) {
	decompose.PutI64(seg, 0, r.VisitDate)
	decompose.PutF64(seg, 8, r.AdRevenue)
	decompose.PutI32(seg, 16, r.Duration)
	off := 20
	for _, s := range []string{r.SourceIP, r.DestURL, r.UserAgent, r.CountryCode, r.LanguageCode, r.SearchWord} {
		binary.LittleEndian.PutUint32(seg[off:], uint32(len(s)))
		copy(seg[off+4:], s)
		off += 4 + len(s)
	}
}

func (VisitCodec) Decode(seg []byte) (datagen.UserVisit, int) {
	r := datagen.UserVisit{
		VisitDate: decompose.I64(seg, 0),
		AdRevenue: decompose.F64(seg, 8),
		Duration:  decompose.I32(seg, 16),
	}
	off := 20
	fields := []*string{&r.SourceIP, &r.DestURL, &r.UserAgent, &r.CountryCode, &r.LanguageCode, &r.SearchWord}
	for _, f := range fields {
		n := int(binary.LittleEndian.Uint32(seg[off:]))
		*f = string(seg[off+4 : off+4+n])
		off += 4 + n
	}
	return r, off
}

// DecaVisits is the page-decomposed table.
type DecaVisits struct {
	Group *memory.Group
	Count int
}

// BuildDecaVisits decomposes rows into pages from mem.
func BuildDecaVisits(mem *memory.Manager, rows []datagen.UserVisit) *DecaVisits {
	g := mem.NewGroup()
	for _, r := range rows {
		decompose.Write[datagen.UserVisit](g, VisitCodec{}, r)
	}
	return &DecaVisits{Group: g, Count: len(rows)}
}

// MemBytes returns the page footprint.
func (t *DecaVisits) MemBytes() int64 { return t.Group.Footprint() }

// Release frees the pages wholesale.
func (t *DecaVisits) Release() { t.Group.Release() }

// prefixLen is SUBSTR(sourceIP, 1, 5)'s length.
const prefixLen = 5

// Query2Rows aggregates revenue per IP prefix over boxed rows.
func Query2Rows(t RowVisits) (int, float64) {
	groups := newGroupSums()
	for _, r := range t {
		p := r.SourceIP
		if len(p) > prefixLen {
			p = p[:prefixLen]
		}
		*sumAt(groups, p) += r.AdRevenue
	}
	return groups.fold()
}

// Query2Columnar aggregates over the column vectors.
func Query2Columnar(c *ColumnarVisits) (int, float64) {
	groups := newGroupSums()
	for i := range c.AdRevenues {
		lo, hi := c.IPOffsets[i], c.IPOffsets[i+1]
		if hi-lo > prefixLen {
			hi = lo + prefixLen
		}
		*sumAt(groups, c.IPBytes[lo:hi]) += c.AdRevenues[i]
	}
	return groups.fold()
}

// Query2Deca aggregates straight off the pages: revenue at a constant
// offset, the IP prefix read from the first string field in place.
func Query2Deca(t *DecaVisits) (int, float64) {
	groups := newGroupSums()
	g := t.Group
	for pi := 0; pi < g.NumPages(); pi++ {
		page := g.Page(pi)
		off := 0
		for off+24 <= len(page) {
			revenue := decompose.F64(page, off+8)
			// Walk the six string fields to find the record's end; the
			// first is sourceIP, whose prefix is the group key.
			so := off + 20
			ipLen := int(binary.LittleEndian.Uint32(page[so:]))
			pl := ipLen
			if pl > prefixLen {
				pl = prefixLen
			}
			*sumAt(groups, page[so+4:so+4+pl]) += revenue
			fo := so
			for f := 0; f < 6; f++ {
				n := int(binary.LittleEndian.Uint32(page[fo:]))
				fo += 4 + n
			}
			off = fo
		}
	}
	return groups.fold()
}

// groupSums is Query 2's revenue sum per group: the map holds each key's
// index into sums, which grow by append, not by a pointer a group.
type groupSums struct {
	index map[string]int
	sums  []float64
}

func newGroupSums() *groupSums { return &groupSums{index: make(map[string]int)} }

// sumAt returns key's sum, a new group's at 0. It looks the key up before
// it inserts, so only a new group converts a byte key to a string
// (groups[string(b)] += v converts one every row), and a string key, a
// substring of its row's field, is never copied.
func sumAt[K string | []byte](g *groupSums, key K) *float64 {
	i, ok := g.index[string(key)]
	if !ok {
		i = len(g.sums)
		g.index[string(key)] = i
		g.sums = append(g.sums, 0)
	}
	return &g.sums[i]
}

// fold returns the group count and an order-independent checksum.
func (g *groupSums) fold() (int, float64) {
	var sum float64
	for k, i := range g.index {
		sum += g.sums[i] * float64(1+len(k)%3)
	}
	return len(g.index), sum
}
