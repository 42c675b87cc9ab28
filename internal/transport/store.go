package transport

import (
	"bufio"
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
)

// outputStore is the pinned map-output registry shared by the in-process
// transport and the networked DataServer. Serving is non-consuming: an
// entry stays registered — pinned — until the consuming stage commits
// (Commit), the exchange round is abandoned (Abort), or the shuffle is
// dropped, so any number of consumers (reduce retries, speculative
// twins) can fetch the same output.
//
// Because a serve encodes the entry's buffer outside the lock, an entry
// removed mid-serve cannot release its buffers immediately. The stage
// verdicts (takeAll, dropShuffle) unregister their entries and then wait
// for the in-flight serves to drain, so the caller releases every payload
// itself and the memory ledgers are settled when the verdict returns — a
// server goroutine unpins only after the fetcher already holds the
// frame's last byte, so the job can get here first. The single-entry
// removals (displacement by a re-registration, a discard), which run
// under other locks or on a control loop, never wait: the entry leaves
// the registry as a zombie that the store releases when its last serve
// ends, and is reported absent/unreplaced to the caller.
type outputStore struct {
	mu sync.Mutex
	m  map[MapOutputID]*storeEntry
	// drained is broadcast whenever an entry's serving count reaches zero.
	drained sync.Cond

	// Serve-path copy accounting (atomic: serves run outside the lock).
	pagesZeroCopy atomic.Int64
	bytesSendfile atomic.Int64
	userCopyBytes atomic.Int64

	// bufPool recycles fallback staging buffers across serves (and across
	// connections, for the networked server) instead of growing one per
	// connection and discarding large frames per request.
	bufPool sync.Pool
}

// getBuf takes a staging buffer from the serve pool.
func (s *outputStore) getBuf() *bytes.Buffer {
	if b, ok := s.bufPool.Get().(*bytes.Buffer); ok {
		b.Reset()
		return b
	}
	return new(bytes.Buffer)
}

// putBuf returns a staging buffer to the pool. Buffers of any size are
// pooled — the GC reclaims idle pool entries, so a huge frame's buffer
// is reused by the next huge frame instead of thrown away per request.
func (s *outputStore) putBuf(b *bytes.Buffer) {
	s.bufPool.Put(b)
}

// addServeStats folds the store's serve-path counters into st.
func (s *outputStore) addServeStats(st *Stats) {
	st.PagesServedZeroCopy += s.pagesZeroCopy.Load()
	st.BytesSendfile += s.bytesSendfile.Load()
	st.UserspaceCopyBytes += s.userCopyBytes.Load()
}

type storeEntry struct {
	p       Payload
	serving int  // in-flight serves encoding this entry's buffer
	dead    bool // removed from the registry mid-serve; release on last endServe
}

func (s *outputStore) init() {
	s.m = make(map[MapOutputID]*storeEntry)
	s.drained.L = &s.mu
}

// put stores a payload, returning any entry it displaced so the caller
// can release it. A displaced entry that is mid-serve is released by the
// store instead (replaced=false).
func (s *outputStore) put(id MapOutputID, p Payload) (prev Payload, replaced bool) {
	s.mu.Lock()
	old, had := s.m[id]
	s.m[id] = &storeEntry{p: p}
	if had && old.serving > 0 {
		old.dead = true
		had = false
	}
	s.mu.Unlock()
	if !had {
		return Payload{}, false
	}
	return old.p, true
}

// take removes the entry and returns its payload for the caller to
// release. A mid-serve entry is removed but released by the store later
// (ok=false).
func (s *outputStore) take(id MapOutputID) (Payload, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.removeLocked(id)
}

func (s *outputStore) removeLocked(id MapOutputID) (Payload, bool) {
	e, ok := s.m[id]
	if !ok {
		return Payload{}, false
	}
	delete(s.m, id)
	if e.serving > 0 {
		e.dead = true
		return Payload{}, false
	}
	return e.p, true
}

// takeAll removes every listed entry and returns the payloads, all the
// caller's to release: it waits out the serves in flight on them.
func (s *outputStore) takeAll(ids []MapOutputID) []Payload {
	s.mu.Lock()
	defer s.mu.Unlock()
	var taken []*storeEntry
	for _, id := range ids {
		if e, ok := s.m[id]; ok {
			delete(s.m, id)
			taken = append(taken, e)
		}
	}
	return s.settleLocked(taken)
}

// dropShuffle removes every entry of the shuffle and returns the
// payloads, all the caller's to release (as takeAll).
func (s *outputStore) dropShuffle(shuffle ShuffleID) []Payload {
	s.mu.Lock()
	defer s.mu.Unlock()
	var dropped []*storeEntry
	for id, e := range s.m {
		if id.Shuffle == shuffle {
			delete(s.m, id)
			dropped = append(dropped, e)
		}
	}
	return s.settleLocked(dropped)
}

// settleLocked waits until no serve is in flight on any of the
// already-unregistered entries — nothing can pin them anew — and returns
// their payloads.
func (s *outputStore) settleLocked(es []*storeEntry) []Payload {
	var out []Payload
	for _, e := range es {
		for e.serving > 0 {
			s.drained.Wait()
		}
		out = append(out, e.p)
	}
	return out
}

// pending counts registered entries (leak probes). Zombies awaiting
// their last endServe are not counted: their release is already ordered.
func (s *outputStore) pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// beginServe pins the entry for an out-of-lock encode and returns its
// payload. The caller must call endServe exactly once with the handle.
func (s *outputStore) beginServe(id MapOutputID) (Payload, *storeEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[id]
	if !ok {
		return Payload{}, nil, false
	}
	e.serving++
	return e.p, e, true
}

// endServe unpins the entry; a zombie's buffers release on the last
// unpin.
func (s *outputStore) endServe(e *storeEntry) {
	s.mu.Lock()
	e.serving--
	release := e.dead && e.serving == 0
	if e.serving == 0 {
		s.drained.Broadcast()
	}
	s.mu.Unlock()
	if release {
		releasePayload(e.p)
	}
}

// serveCopy serves the entry without consuming it — the executor-local
// equivalent of a socket FETCH, so local and remote consumers see
// identical multi-consumer semantics. With a non-nil open, the frame is
// decoded as it streams (segment payloads stream straight from their
// pages and spill files; Encode-only payloads stage one pooled frame);
// with open == nil the result is a Wire payload. A payload with no wire
// form cannot be re-served; it falls back to the legacy consuming
// pointer handover (a lost consumer there is recovered by lineage, not
// re-fetch).
func (s *outputStore) serveCopy(id MapOutputID, open FrameOpen) (Payload, bool, error) {
	s.mu.Lock()
	e, ok := s.m[id]
	if !ok {
		s.mu.Unlock()
		return Payload{}, false, nil
	}
	if e.p.Encode == nil && e.p.Segments == nil {
		p, _ := s.removeLocked(id)
		s.mu.Unlock()
		return p, true, nil
	}
	e.serving++
	p := e.p
	s.mu.Unlock()
	defer s.endServe(e)

	if open != nil && p.Segments != nil {
		// Vectored local serve: the consumer decodes straight off the
		// segment stream — no intermediate frame buffer exists. Pages are
		// counted zero-copy in the "never staged into a frame" sense.
		fs, err := p.Segments()
		if err != nil {
			return Payload{}, false, fmt.Errorf("transport: encoding %v: %w", id, err)
		}
		size := fs.Len()
		r := newSegmentsReader(fs)
		dec, derr := open(bufio.NewReader(r), size)
		staged, pages := fs.Staged(), fs.Pages()
		fs.Release()
		if derr != nil {
			return Payload{}, false, fmt.Errorf("transport: decoding %v: %w", id, derr)
		}
		s.pagesZeroCopy.Add(int64(pages))
		s.userCopyBytes.Add(staged)
		return Payload{
			Data:        dec.Data,
			SrcExecutor: p.SrcExecutor,
			Bytes:       size,
			MemBytes:    dec.MemBytes,
		}, true, nil
	}

	frame := s.getBuf()
	defer s.putBuf(frame)
	if err := encodeFallback(p, frame); err != nil {
		return Payload{}, false, fmt.Errorf("transport: encoding %v: %w", id, err)
	}
	s.userCopyBytes.Add(int64(frame.Len()))
	if open != nil {
		size := int64(frame.Len())
		dec, err := open(bytes.NewReader(frame.Bytes()), size)
		if err != nil {
			return Payload{}, false, fmt.Errorf("transport: decoding %v: %w", id, err)
		}
		return Payload{
			Data:        dec.Data,
			SrcExecutor: p.SrcExecutor,
			Bytes:       size,
			MemBytes:    dec.MemBytes,
		}, true, nil
	}
	// Legacy Wire serve: the caller owns the frame bytes, so they cannot
	// come from the pool.
	wire := bytes.Clone(frame.Bytes())
	return Payload{
		Data:        Wire{Frame: wire},
		SrcExecutor: p.SrcExecutor,
		Bytes:       int64(len(wire)),
		MemBytes:    int64(len(wire)),
	}, true, nil
}

// encodeFallback stages p's frame into buf via Encode, or via Segments
// when the payload has only a segment form.
func encodeFallback(p Payload, buf *bytes.Buffer) error {
	if p.Encode != nil {
		return p.Encode(buf)
	}
	fs, err := p.Segments()
	if err != nil {
		return err
	}
	_, err = buf.ReadFrom(newSegmentsReader(fs))
	fs.Release()
	return err
}
