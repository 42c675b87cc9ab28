package bench

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"deca/internal/decompose"
	"deca/internal/memory"
	"deca/internal/obs"
	"deca/internal/serial"
	"deca/internal/shuffle"
	"deca/internal/transport"
)

// WireThroughput is the serialization claim of §6.5 measured end to end
// on the shuffle wire path: a Deca container's network frame is a bulk
// page snapshot (the records are already bytes), while an object
// container must marshal — and on the fold re-materialize — every record
// through the Kryo-style serializer. The experiment fills an aggregation
// container of each flavour with identical LR-shaped records (int64 key,
// fixed-dimension int vector), then measures encode (frame segments
// written out) and decode (stage + fold into a fresh container) throughput
// over the frames.
func WireThroughput(o Options, rep *Report) error {
	rep.PaperClaim = "Deca saves the cost of data (de-)serialization by directly outputting " +
		"the raw bytes; Spark's serializer pays per record on both ends (§6.5, Table 5)"

	const dim = 48
	records := o.scaled(100_000)
	// Small scales make single encodes microsecond-short; more iterations
	// keep the throughput numbers out of timer noise.
	iters := 5
	if n := 500_000 / records; n > iters {
		iters = min(n, 100)
	}

	// Aggregation containers (ReduceByKey map output).
	spill := o.Base.SpillDir
	objCfg := shuffle.ObjectConfig[int64, []int64]{KeySer: serial.Int64{}, ValSer: serial.I64Slice{}, SpillDir: spill}
	decaMem := memory.NewManager(0, 0)
	defer decaMem.Close()
	dAgg, err := shuffle.NewDecaAgg[int64, []int64](decaMem,
		combineVec, decompose.Int64Codec{}, decompose.Int64VecCodec{Dim: dim}, spill)
	if err != nil {
		return err
	}
	oAgg := shuffle.NewObjectAgg(combineVec, objCfg)
	defer dAgg.Release()
	defer oAgg.Release()

	// Wide-varint element values exercise the serializer's per-element
	// cost; Deca's page layout stores them as raw words either way. The
	// reusable vec feeds the Deca puts (the codec copies into pages
	// immediately); the object puts box a fresh slice per record, exactly
	// as the JVM's object containers hold distinct heap objects.
	vec := make([]int64, dim)
	for i := 0; i < records; i++ {
		for d := range vec {
			vec[d] = int64(1)<<55 + int64(i*dim+d)
		}
		boxed := make([]int64, dim)
		copy(boxed, vec)
		dAgg.Put(int64(i), vec)
		oAgg.Put(int64(i), boxed)
	}

	// Every row runs what the engine runs: an encode builds the container's
	// frame as segments and writes them out, a decode stages the frame and
	// folds it into a fresh container of the same kind, as a reduce task
	// receives a map output.
	type path struct {
		label  string
		encode func() (*transport.FrameSegments, error)
		fresh  func() (folder, error)
	}
	// One long-lived destination manager, as on a real executor: restored
	// pages return to its pool on release and recycle across fetches —
	// the steady-state-no-allocation property the decode path inherits.
	dstMem := memory.NewManager(0, 0)
	defer dstMem.Close()
	paths := []path{
		{"agg  Deca", dAgg.EncodeSegments, func() (folder, error) {
			return shuffle.NewDecaAgg(dstMem, combineVec, decompose.Int64Codec{}, decompose.Int64VecCodec{Dim: dim}, spill)
		}},
		{"agg  Object", oAgg.EncodeSegments, func() (folder, error) { return shuffle.NewObjectAgg(combineVec, objCfg), nil }},
	}
	decode := func(p path, frame []byte) error {
		b, err := p.fresh()
		if err != nil {
			return err
		}
		defer b.Release()
		st, err := shuffle.Stage(bytes.NewReader(frame), dstMem, spill)
		if err != nil {
			return err
		}
		return b.Fold(st)
	}

	mbps := make([][2]float64, len(paths)) // per path: {encode, decode} MB/s
	for pi, p := range paths {
		var frame bytes.Buffer
		if err := writeFrame(&frame, p.encode); err != nil {
			return fmt.Errorf("wire: %s encode: %w", p.label, err)
		}
		size := int64(frame.Len())

		start := time.Now()
		for i := 0; i < iters; i++ {
			frame.Reset()
			if err := writeFrame(&frame, p.encode); err != nil {
				return fmt.Errorf("wire: %s encode: %w", p.label, err)
			}
		}
		encDur := time.Since(start)

		buf := frame.Bytes()
		start = time.Now()
		for i := 0; i < iters; i++ {
			if err := decode(p, buf); err != nil {
				return fmt.Errorf("wire: %s decode: %w", p.label, err)
			}
		}
		decDur := time.Since(start)

		enc := throughputMBps(size, iters, encDur)
		dec := throughputMBps(size, iters, decDur)
		mbps[pi] = [2]float64{enc, dec}
		rep.metric(Metric{Name: "encode/" + p.label, Bytes: size,
			WallMS: float64(encDur) / float64(time.Millisecond) / float64(iters)})
		rep.metric(Metric{Name: "decode/" + p.label, Bytes: size,
			WallMS: float64(decDur) / float64(time.Millisecond) / float64(iters)})
		rep.add("%-11s frame=%-9s encode=%8.1fMB/s decode=%8.1fMB/s (records=%d dim=%d)",
			p.label, mb(size), enc, dec, records, dim)
	}
	d, obj := mbps[0], mbps[1]
	rep.add("agg  Deca/Object ratio: encode %.1fx, decode %.1fx", ratio(d[0], obj[0]), ratio(d[1], obj[1]))
	if err := serveFetchRows(rep, o, decaMem, records, dim, iters); err != nil {
		return err
	}
	return nil
}

// serveFetchRows measures the data plane end to end: a DataServer serving
// Deca frames through a real socket pair, fetched by a pooled DataClient,
// vectored (the container's segments: writev page segments, sendfile
// spill runs) against buffered (an Encode-only registration of the same
// container, the form Object payloads take: the transport stages every
// byte the encoder writes before shipping it). Aggregation containers of
// distinct keys carry the frames: a Deca frame is its header, its pages
// and its runs, with no table in map order, so the two registrations must
// produce bit-identical frames — the checksum row enforces it. The
// userspace-copy metric records how many frame bytes each serve staged
// through user memory per fetch: the buffered one stages the whole frame,
// the vectored one only its varint headers.
func serveFetchRows(rep *Report, o Options, mem *memory.Manager, records, dim, iters int) error {
	// In-memory container: every record in pages. Spill-backed container:
	// the first fill forced to disk, a second fill resident — its frame
	// exercises pages and the sendfile run path in one serve.
	newAgg := func() (*shuffle.DecaAgg[int64, []int64], error) {
		return shuffle.NewDecaAgg[int64, []int64](mem, combineVec,
			decompose.Int64Codec{}, decompose.Int64VecCodec{Dim: dim}, o.Base.SpillDir)
	}
	dMem, err := newAgg()
	if err != nil {
		return err
	}
	defer dMem.Release()
	dSp, err := newAgg()
	if err != nil {
		return err
	}
	defer dSp.Release()
	vec := make([]int64, dim)
	fill := func(b *shuffle.DecaAgg[int64, []int64]) {
		for i := 0; i < records; i++ {
			for d := range vec {
				vec[d] = int64(1)<<55 + int64(i*dim+d)
			}
			b.Put(int64(i), vec)
		}
	}
	fill(dMem)
	fill(dSp)
	if err := dSp.Spill(); err != nil {
		return fmt.Errorf("wire: spill: %w", err)
	}
	fill(dSp)

	srv, err := transport.NewDataServer("")
	if err != nil {
		return err
	}
	defer srv.Close()
	client := transport.NewDataClient(0)
	defer client.Close()

	cases := []struct {
		label    string
		sink     *shuffle.DecaAgg[int64, []int64]
		vectored bool
	}{
		{"serve/agg Deca mem", dMem, true},
		{"serve/agg Deca mem", dMem, false},
		{"serve/agg Deca spill", dSp, true},
		{"serve/agg Deca spill", dSp, false},
	}
	sums := make([]uint32, len(cases))
	rates := make([]float64, len(cases))
	for ci, c := range cases {
		id := transport.MapOutputID{Shuffle: 1000, MapTask: ci, Reduce: 0}
		pl := transport.Payload{
			Data:     c.sink,
			Bytes:    c.sink.SizeBytes() + c.sink.SpilledBytes(),
			MemBytes: c.sink.SizeBytes(),
			Encode:   c.sink.EncodeWire,
		}
		if c.vectored {
			pl.Segments = c.sink.EncodeSegments
		}
		srv.Put(id, pl)

		var sum uint32
		open := func(r transport.FrameReader, size int64) (transport.Decoded, error) {
			h := crc32.NewIEEE()
			if _, err := io.Copy(h, r); err != nil {
				return transport.Decoded{}, err
			}
			sum = h.Sum32()
			return transport.Decoded{}, nil
		}
		before := srv.Counters()
		var size int64
		start := time.Now()
		for i := 0; i < iters; i++ {
			_, n, found, err := client.FetchInto(srv.Addr(), id, open)
			if err != nil {
				return fmt.Errorf("wire: fetch %s: %w", c.label, err)
			}
			if !found {
				return fmt.Errorf("wire: fetch %s: not found", c.label)
			}
			size = n
		}
		dur := time.Since(start)
		after := srv.Counters()
		sums[ci] = sum
		rates[ci] = throughputMBps(size, iters, dur)
		userCopy := (after[obs.ServeUserspaceCopyBytes] - before[obs.ServeUserspaceCopyBytes]) / int64(iters)
		sendfile := (after[obs.BytesSendfile] - before[obs.BytesSendfile]) / int64(iters)
		mode := "buffered"
		if c.vectored {
			mode = "vectored"
		}
		rep.metric(Metric{Name: c.label + " " + mode, Mode: mode, Bytes: size,
			WallMS:   float64(dur) / float64(time.Millisecond) / float64(iters),
			Checksum: float64(sum)})
		rep.metric(Metric{Name: "usercopy/" + c.label + " " + mode, Mode: mode, Bytes: userCopy,
			Checksum: float64(userCopy)})
		rep.add("%-21s %-8s frame=%-9s fetch=%8.1fMB/s usercopy=%-9s sendfile=%s",
			c.label, mode, mb(size), rates[ci], mb(userCopy), mb(sendfile))
	}
	// Cases pair vectored/buffered per container: mem at 0/1, spill at 2/3.
	for i, shape := range []string{"mem", "spill"} {
		if sums[2*i] != sums[2*i+1] {
			return fmt.Errorf("wire: %s frames differ between vectored (%08x) and buffered (%08x) serve",
				shape, sums[2*i], sums[2*i+1])
		}
		rep.add("%-5s vectored/buffered serve ratio: %.2fx (frames bit-identical, crc %08x)",
			shape, ratio(rates[2*i], rates[2*i+1]), sums[2*i])
	}
	return nil
}

// folder is a fresh container a decode row folds a staged frame into.
type folder interface {
	Fold(*shuffle.Staged) error
	Release()
}

// writeFrame builds a frame as segments and writes them out, as a serve
// ships them.
func writeFrame(w io.Writer, encode func() (*transport.FrameSegments, error)) error {
	fs, err := encode()
	if err != nil {
		return err
	}
	defer fs.Release()
	_, err = fs.WriteTo(w)
	return err
}

func combineVec(a, b []int64) []int64 {
	out := make([]int64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

func throughputMBps(size int64, iters int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(size) * float64(iters) / (1 << 20) / d.Seconds()
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}
