package transport

import "sync"

// InProcess is the single-process Transport: a pinned outputStore keyed
// by MapOutputID. Every fetch serves an encoded Wire frame — even when
// source and destination are the same executor — so the registered
// buffer survives its consumers and the stage-commit protocol applies
// uniformly; the local/remote distinction is still tracked so the engine
// can report how much shuffle data would travel on a real network.
type InProcess struct {
	store outputStore

	mu    sync.Mutex
	stats Stats
}

// NewInProcess returns an empty in-process transport.
func NewInProcess() *InProcess {
	t := &InProcess{}
	t.store.init()
	return t
}

// Register publishes a map output, returning any entry it replaced.
func (t *InProcess) Register(id MapOutputID, p Payload) (Payload, bool) {
	prev, replaced := t.store.put(id, p)
	t.mu.Lock()
	t.stats.Registered++
	t.mu.Unlock()
	return prev, replaced
}

// Fetch serves a copy of the output registered under id — streamed
// through open when non-nil, Wire-framed otherwise — leaving the
// registration pinned for other consumers. In-process fetches have no
// transient failure mode beyond a failed encode or decode.
func (t *InProcess) Fetch(id MapOutputID, dstExecutor int, open FrameOpen) (Payload, bool, error) {
	p, ok, err := t.store.serveCopy(id, open)
	if !ok || err != nil {
		return Payload{}, false, err
	}
	t.mu.Lock()
	if p.SrcExecutor == dstExecutor {
		t.stats.LocalFetches++
		t.stats.LocalBytes += p.Bytes
	} else {
		t.stats.RemoteFetches++
		t.stats.RemoteBytes += p.Bytes
	}
	t.mu.Unlock()
	return p, true, nil
}

// Commit releases the listed registrations after their consuming stage
// committed.
func (t *InProcess) Commit(ids []MapOutputID) []Payload {
	return t.store.takeAll(ids)
}

// Drop removes every output of the shuffle still registered.
func (t *InProcess) Drop(shuffle ShuffleID) []Payload {
	return t.store.dropShuffle(shuffle)
}

// Pending returns the number of registered outputs (tests and leak
// checks).
func (t *InProcess) Pending() int {
	return t.store.pending()
}

// Stats snapshots the traffic counters, including the serve-path copy
// counters.
func (t *InProcess) Stats() Stats {
	t.mu.Lock()
	st := t.stats
	t.mu.Unlock()
	t.store.addServeStats(&st)
	return st
}

// Close is a no-op: the in-process transport holds no resources.
func (t *InProcess) Close() error { return nil }
