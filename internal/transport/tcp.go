package transport

import (
	"fmt"
	"sync"
	"time"

	"deca/internal/obs"
)

// TCP is the networked Transport for a single-process cluster: one
// DataServer per executor, a driver-side location map from output id to
// the executor holding it, and a shared pooled DataClient. It models the
// paper's cluster deployments honestly within one process: a
// cross-executor fetch speaks a length-prefixed request/response
// protocol ("FETCH id" → frame | NOTFOUND) over a real socket — the
// payload's frame is built by the source (Payload.Segments, or
// Payload.Encode staged), its bytes travel through the kernel's TCP
// stack, and the fetcher decodes them as they stream into its own
// executor's memory — while an executor-local fetch reads the same
// segments without the socket.
// RemoteBytes counts the actual frame bytes moved, not an estimate.
//
// Serving is non-consuming (the stage-commit ownership rule): the
// location entry and the registered buffer survive every fetch, so
// reduce retries and speculative twins can re-fetch. Commit ends the
// outputs' lifetime once the consuming stage settles; Drop purges
// whatever is still registered on every node and returns it.
//
// The multi-process deployment reuses the same data plane (one
// DataServer per deca-executor process, addresses advertised through
// control-plane registration) but moves this location map into the
// driver's directory, reachable over the internal/ctl RPC stream.
type TCP struct {
	client *DataClient

	mu     sync.Mutex
	nodes  []*DataServer
	loc    map[MapOutputID]int // output id → executor holding it
	stats  Stats
	closed bool
}

// Protocol constants. Every request and response is length-delimited by
// construction: the request is three uvarints, the response a status byte
// followed (on a hit) by a uvarint frame length and the frame.
const (
	statusNotFound byte = 0
	statusOK       byte = 1

	// maxWireFrame bounds a response frame length read off the wire.
	maxWireFrame = 1 << 32
	// connPoolSize caps idle pooled connections per destination node.
	connPoolSize = 4
	// frameReadChunk is the granularity at which a fetching client
	// refreshes its read deadline while a frame streams in: the timeout
	// bounds the wait for each chunk, not the whole (arbitrarily large)
	// frame.
	frameReadChunk = 1 << 20
)

// LoopbackAddrs returns the default listen-address set: n ephemeral
// loopback endpoints.
func LoopbackAddrs(n int) []string {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	return addrs
}

// NewTCP returns a TCP transport with one listener per executor, serving
// immediately. addrs[i] is executor i's listen address ("host:port",
// ":0" for an ephemeral port); pass LoopbackAddrs(n) — or nil for the
// same default — when any free loopback port will do. fetchTimeout
// bounds each FETCH round-trip with read/write deadlines on the socket
// (0 = no deadline).
func NewTCP(addrs []string, fetchTimeout time.Duration) (*TCP, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("transport: TCP needs at least one executor address")
	}
	t := &TCP{
		client: NewDataClient(fetchTimeout),
		loc:    make(map[MapOutputID]int),
	}
	for i, addr := range addrs {
		node, err := NewDataServer(addr)
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("transport: executor %d: %w", i, err)
		}
		t.nodes = append(t.nodes, node)
	}
	return t, nil
}

// SetRecorder attaches an observability recorder to every executor
// endpoint, each tagged with its executor id, so serve events carry the
// serving side. The shared fetch client stays unattached — it serves all
// executors, so per-fetcher attribution is the engine's job. Call before
// serving starts.
func (t *TCP) SetRecorder(r *obs.Recorder) {
	for i, n := range t.nodes {
		n.SetRecorder(r, int32(i))
	}
}

// Addrs returns each executor endpoint's resolved listen address
// (diagnostics, tests, and registration advertisement).
func (t *TCP) Addrs() []string {
	addrs := make([]string, len(t.nodes))
	for i, n := range t.nodes {
		addrs[i] = n.Addr()
	}
	return addrs
}

// Register publishes a map output on its source executor's node and
// records its location, returning any entry it displaced — possibly from
// a different node, when a retried or speculative task re-registered
// elsewhere. The location update, the displaced-entry take, and the node
// store happen under one lock: concurrent Registers of the same id (two
// speculative attempts racing) must interleave as whole replacements, or
// one payload would be stored with no location pointing at it and leak.
func (t *TCP) Register(id MapOutputID, p Payload) (Payload, bool) {
	if p.SrcExecutor < 0 || p.SrcExecutor >= len(t.nodes) {
		panic(fmt.Sprintf("transport: Register %v from unknown executor %d", id, p.SrcExecutor))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	prevSrc, had := t.loc[id]
	t.loc[id] = p.SrcExecutor
	t.stats.Registered++
	var prev Payload
	var replaced bool
	if had {
		prev, replaced = t.nodes[prevSrc].Take(id)
	}
	t.nodes[p.SrcExecutor].Put(id, p)
	return prev, replaced
}

// Fetch resolves the output's location and serves a frame — over the
// socket for a cross-executor fetch, encoded in place for a local one —
// leaving the registration pinned for other consumers. A failed
// round-trip (dial, write, read, deadline) returns a non-nil error with
// the output still reachable for a retry; NOTFOUND returns ok=false with
// a nil error.
func (t *TCP) Fetch(id MapOutputID, dstExecutor int, open FrameOpen) (Payload, bool, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return Payload{}, false, nil
	}
	src, ok := t.loc[id]
	if !ok {
		t.mu.Unlock()
		return Payload{}, false, nil
	}
	t.mu.Unlock()

	node := t.nodes[src]
	if src == dstExecutor {
		p, ok, err := node.ServeLocal(id, open)
		if !ok || err != nil {
			return Payload{}, false, err
		}
		t.mu.Lock()
		t.stats.LocalFetches++
		t.stats.LocalBytes += p.Bytes
		t.mu.Unlock()
		return p, true, nil
	}

	dec, size, found, err := t.client.FetchInto(node.Addr(), id, open)
	if err != nil {
		// The round-trip failed (dial, write, read, deadline, decode). The
		// registration was never consumed, so a retried fetch just works.
		return Payload{}, false, err
	}
	if !found {
		// NOTFOUND: the node kept no servable frame for the id — the entry
		// was purged by a racing Commit/Drop (its location is already
		// gone), or it has no wire form (the location stays, so a local
		// consumer or Drop can still reach the pinned payload).
		return Payload{}, false, nil
	}
	t.mu.Lock()
	t.stats.RemoteFetches++
	t.stats.RemoteBytes += size
	t.mu.Unlock()
	return Payload{
		Data:        dec.Data,
		SrcExecutor: src,
		Bytes:       size,
		MemBytes:    dec.MemBytes,
	}, true, nil
}

// Commit ends the listed outputs' lifetime after their consuming stage
// committed, returning the payloads for the caller to release once the
// serves still in flight on them have ended.
func (t *TCP) Commit(ids []MapOutputID) []Payload {
	bySrc := make(map[int][]MapOutputID)
	t.mu.Lock()
	for _, id := range ids {
		if src, ok := t.loc[id]; ok {
			bySrc[src] = append(bySrc[src], id)
			delete(t.loc, id)
		}
	}
	t.mu.Unlock()
	var out []Payload
	for src, ids := range bySrc {
		out = append(out, t.nodes[src].TakeAll(ids)...)
	}
	return out
}

// Drop removes every output of the shuffle still registered on any node
// and returns them.
func (t *TCP) Drop(shuffle ShuffleID) []Payload {
	t.mu.Lock()
	var ids []MapOutputID
	for id := range t.loc {
		if id.Shuffle == shuffle {
			ids = append(ids, id)
		}
	}
	t.mu.Unlock()
	return t.Commit(ids)
}

// Pending returns the number of registered, unfetched outputs across all
// nodes (tests and leak checks).
func (t *TCP) Pending() int {
	total := 0
	for _, n := range t.nodes {
		total += n.Pending()
	}
	return total
}

// Stats snapshots the traffic counters, folding in every node's
// serve-path copy counters.
func (t *TCP) Stats() Stats {
	t.mu.Lock()
	st := t.stats
	t.mu.Unlock()
	for _, n := range t.nodes {
		n.ServeStats(&st)
	}
	return st
}

// Close shuts every listener and drains every pooled connection; a fetch
// that was in flight during Close closes its connection on return rather
// than re-pooling it. Registered payloads are left to the caller (Drop
// them first); in-flight serves finish on their own connections.
// Idempotent.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	for _, n := range t.nodes {
		n.Close()
	}
	t.client.Close()
	return nil
}
