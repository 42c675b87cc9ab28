package transport

import (
	"fmt"
	"sync"

	"deca/internal/obs"
)

// outputStore is a node's pinned map-output registry. Serving is
// non-consuming: an entry stays registered — pinned — until the consuming
// stage commits (Commit) or the shuffle is dropped (Drop), so any number
// of consumers (the reduce task, its retries) can fetch the same output.
//
// Because a serve encodes the entry's buffer outside the lock, an entry
// removed mid-serve cannot release its buffers immediately. The stage
// verdicts (takeAll, dropShuffle) unregister their entries and then wait
// for the in-flight serves to drain, so the caller releases every payload
// itself and the memory ledgers are settled when the verdict returns — a
// server goroutine unpins only after the fetcher already holds the
// frame's last byte, so the job can get here first. The single-entry
// removals (displacement by a re-registration, a discard), which run
// under other locks or on a control loop, never wait and hand nothing
// back: the store releases the entry at once, or — mid-serve — leaves it
// as a zombie that it releases when its last serve ends.
type outputStore struct {
	mu sync.Mutex
	m  map[MapOutputID]*storeEntry
	// drained is broadcast whenever an entry's serving count reaches zero.
	drained sync.Cond

	// counters holds the node's serve rows (ServeFrameBytes,
	// PagesServedZeroCopy, BytesSendfile, ServeUserspaceCopyBytes);
	// atomic, as serves run outside the lock.
	counters obs.Counters
}

// countServe books one shipped frame into the serve-path counters. Pages
// count as zero-copy in the "never staged into a frame buffer" sense on
// the socket and the executor-local path alike; file bytes count only
// where they went through sendfile (the socket serve adds them itself).
func (s *outputStore) countServe(fs *FrameSegments) {
	s.counters[obs.ServeFrameBytes].Add(fs.Len())
	s.counters[obs.PagesServedZeroCopy].Add(int64(fs.Pages()))
	s.counters[obs.ServeUserspaceCopyBytes].Add(fs.Staged())
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

// put stores a payload, ending the lifetime of any entry it displaces.
func (s *outputStore) put(id MapOutputID, p Payload) {
	s.mu.Lock()
	old := s.m[id]
	s.m[id] = &storeEntry{p: p}
	s.mu.Unlock()
	s.retire(old)
}

// discard removes the entry, if any, and ends its lifetime.
func (s *outputStore) discard(id MapOutputID) {
	s.mu.Lock()
	old := s.m[id]
	delete(s.m, id)
	s.mu.Unlock()
	s.retire(old)
}

// retire releases an entry just removed from the registry, or marks it a
// zombie for its last endServe when a serve is still encoding it.
func (s *outputStore) retire(e *storeEntry) {
	if e == nil {
		return
	}
	s.mu.Lock()
	release := e.serving == 0
	e.dead = !release
	s.mu.Unlock()
	if release {
		releasePayload(e.p)
	}
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
// identical multi-consumer semantics: the consumer decodes straight off
// the frame's segments, which are a FrameReader themselves, so no frame
// buffer or reader buffer exists. A decoder reads a count or a length a
// byte at a time and a page body or a spill run in bulk, which a buffer
// would only copy once more.
func (s *outputStore) serveCopy(id MapOutputID, open FrameOpen) (Payload, bool, error) {
	p, e, ok := s.beginServe(id)
	if !ok {
		return Payload{}, false, nil
	}
	defer s.endServe(e)

	fs, err := p.frame()
	if err != nil {
		return Payload{}, false, fmt.Errorf("transport: encoding %v: %w", id, err)
	}
	defer fs.Release()
	dec, err := open(newSegmentsReader(fs), fs.Len())
	if err != nil {
		return Payload{}, false, fmt.Errorf("transport: decoding %v: %w", id, err)
	}
	s.countServe(fs)
	return Payload{
		Data:        dec.Data,
		SrcExecutor: p.SrcExecutor,
		Bytes:       fs.Len(),
		MemBytes:    dec.MemBytes,
	}, true, nil
}
