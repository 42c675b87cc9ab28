package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"deca/internal/obs"
)

// Directory is the location directory the data plane resolves map outputs
// through: output id → the executor holding it and that executor's data
// address. A single-process cluster keeps it in memory; a multi-process
// one keeps it at the driver, reached over the control connection
// (internal/ctl's Driver and Follower both implement it).
type Directory interface {
	// Publish records exec as id's holder. had reports a previous holder
	// whose entry the caller must take; a directory that tells displaced
	// holders to discard by itself (the driver's) reports none.
	Publish(id MapOutputID, exec int) (prev int, had bool, err error)
	// Lookup resolves id without consuming the entry. found=false with a
	// nil error is definitive: nothing is registered under id.
	Lookup(id MapOutputID) (exec int, addr string, found bool, err error)
	// Retire and RetireShuffle end the entries' lifetime — a stage commit
	// and a shuffle drop. A follower's are no-ops: the driver retires the
	// directory, each process its own nodes.
	Retire(ids []MapOutputID)
	RetireShuffle(shuffle ShuffleID)
}

// memDirectory is the single-process Directory: every holder is a node of
// this process, so an entry is just its executor id.
type memDirectory struct {
	mu  sync.Mutex
	loc map[MapOutputID]int
}

func (d *memDirectory) Publish(id MapOutputID, exec int) (int, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	prev, had := d.loc[id]
	d.loc[id] = exec
	return prev, had, nil
}

func (d *memDirectory) Lookup(id MapOutputID) (int, string, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	exec, found := d.loc[id]
	return exec, "", found, nil
}

func (d *memDirectory) Retire(ids []MapOutputID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, id := range ids {
		delete(d.loc, id)
	}
}

func (d *memDirectory) RetireShuffle(shuffle ShuffleID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for id := range d.loc {
		if id.Shuffle == shuffle {
			delete(d.loc, id)
		}
	}
}

// Plane is the Transport: the map-output journey — register, locate,
// serve in place or dial, account, retire — written once over three
// parts. nodes are the executors hosted in this process (a DataServer
// each: the pinned outputs plus, when it listens, the FETCH endpoint); dir
// says which executor holds an output; client dials the holders that are
// not the fetching executor itself. A deployment is a construction:
//
//	NewInProcess  one listener-less node for every executor, memory directory, never dials
//	NewTCP        one listening node per executor, memory directory, cross-executor fetches dialed
//	NewRemote     this process's node (none on the driver), the driver's directory, every other holder dialed
//
// Serving is non-consuming (the package's ownership rule): an entry and
// its location survive every fetch, and Commit/Drop — which retire the
// directory entries and take the payloads off this process's nodes,
// waiting out the serves in flight on them — are the only lifetime end.
type Plane struct {
	dir Directory
	// nodes is keyed by executor id; an executor hosted in another process
	// has none.
	nodes map[int]*DataServer
	// client is nil in the never-dialing construction, whose single node
	// holds every executor's outputs.
	client *DataClient

	// regMu makes a Register one whole replacement: two speculative
	// attempts registering the same id must not interleave their put,
	// publish and take of the displaced entry, or one payload would be
	// stored with no location pointing at it.
	regMu sync.Mutex

	mu     sync.Mutex // guards stats
	stats  Stats
	closed atomic.Bool
}

// LoopbackAddrs returns the default listen-address set: n ephemeral
// loopback endpoints.
func LoopbackAddrs(n int) []string {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	return addrs
}

// NewInProcess returns the single-process construction that moves no
// byte through a socket: every fetch decodes the frame straight off the
// registered buffer's segments. The local/remote distinction is still
// accounted, so the engine can report how much shuffle data would travel
// on a real network.
func NewInProcess() *Plane {
	return &Plane{dir: &memDirectory{loc: make(map[MapOutputID]int)}, nodes: map[int]*DataServer{0: newNode()}}
}

// NewTCP returns the single-process construction with one listener per
// executor, serving immediately: a cross-executor fetch speaks the FETCH
// protocol over a real socket, an executor-local one reads the same
// segments without it. addrs[i] is executor i's listen address
// ("host:port", ":0" for an ephemeral port); fetchTimeout bounds each
// FETCH round-trip with read/write deadlines on the socket (0 = no
// deadline).
func NewTCP(addrs []string, fetchTimeout time.Duration) (*Plane, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("transport: TCP needs at least one executor address")
	}
	t := &Plane{
		dir:    &memDirectory{loc: make(map[MapOutputID]int)},
		nodes:  make(map[int]*DataServer, len(addrs)),
		client: NewDataClient(fetchTimeout),
	}
	for i, addr := range addrs {
		node, err := NewDataServer(addr)
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("transport: executor %d: %w", i, err)
		}
		t.nodes[i] = node
	}
	return t, nil
}

// NewRemote returns one process's share of a multi-process cluster:
// locations live in dir, across the control connection, and nodes holds
// the endpoint of each executor this process hosts, whose address the
// directory advertises. The driver hosts no shuffle data and passes none:
// it retires directory entries, and a Register or Fetch there fails for
// want of a local node.
func NewRemote(dir Directory, nodes map[int]*DataServer, fetchTimeout time.Duration) *Plane {
	return &Plane{dir: dir, nodes: nodes, client: NewDataClient(fetchTimeout)}
}

// node returns the local node holding executor exec's outputs, nil when
// exec is hosted in another process.
func (t *Plane) node(exec int) *DataServer {
	if t.client == nil {
		exec = 0
	}
	return t.nodes[exec]
}

// SetRecorder attaches an observability recorder to every local node,
// tagged with its executor id so serve events carry the serving side, and
// to the fetch client where it fetches for exactly one executor (a client
// shared by several cannot attribute its round-trips). Call before
// serving starts.
func (t *Plane) SetRecorder(r *obs.Recorder) {
	for i, n := range t.nodes {
		n.SetRecorder(r, int32(i))
		if len(t.nodes) == 1 && t.client != nil {
			t.client.SetRecorder(r, int32(i))
		}
	}
}

// Addrs returns each local node's resolved listen address, by executor id
// ("" for one that does not listen or is hosted elsewhere).
func (t *Plane) Addrs() []string {
	var addrs []string
	for i, n := range t.nodes {
		for len(addrs) <= i {
			addrs = append(addrs, "")
		}
		addrs[i] = n.Addr()
	}
	return addrs
}

// Register stores the output on its source executor's node and publishes
// the location, returning any entry it displaced — from the same node, or
// from another local one when a retried or speculative task re-registered
// elsewhere (a holder in another process is told to discard by the
// directory). The entry is stored before it is published, so no lookup
// can resolve to a node that does not hold it yet.
func (t *Plane) Register(id MapOutputID, p Payload) (prev Payload, replaced bool, err error) {
	node := t.node(p.SrcExecutor)
	switch {
	case p.Segments == nil && p.Encode == nil:
		err = fmt.Errorf("transport: registering %v: payload has neither Segments nor Encode, and only a frame can be served", id)
	case node == nil:
		err = fmt.Errorf("transport: registering %v: no local node for executor %d", id, p.SrcExecutor)
	}
	if err != nil {
		releasePayload(p)
		return Payload{}, false, err
	}
	t.regMu.Lock()
	defer t.regMu.Unlock()
	prev, replaced = node.Put(id, p)
	holder, had, err := t.dir.Publish(id, p.SrcExecutor)
	if err != nil {
		// Unpublished, the entry can never be fetched: take it back. (Mid-
		// serve already — an earlier registration of the id was published —
		// the store releases it when that serve ends.)
		if unpublished, ok := node.Take(id); ok {
			releasePayload(unpublished)
		}
		return prev, replaced, fmt.Errorf("transport: publishing %v: %w", id, err)
	}
	if old := t.node(holder); had && old != nil && old != node {
		prev, replaced = old.Take(id)
	}
	t.mu.Lock()
	t.stats.Registered++
	t.mu.Unlock()
	return prev, replaced, nil
}

// Fetch resolves the output's holder and serves a frame: in place when
// the holder is the fetching executor itself (or this construction never
// dials), over the socket otherwise. A failed lookup or round-trip (dial,
// write, read, deadline, decode) returns a non-nil error with the output
// still reachable for a retry; a directory or node that knows nothing
// under id returns ok=false with a nil error.
func (t *Plane) Fetch(id MapOutputID, dstExecutor int, open FrameOpen) (Payload, bool, error) {
	if t.closed.Load() {
		return Payload{}, false, fmt.Errorf("transport: fetching %v: the transport is closed", id)
	}
	if t.node(dstExecutor) == nil {
		return Payload{}, false, fmt.Errorf("transport: fetching %v: no local node for executor %d", id, dstExecutor)
	}
	src, addr, found, err := t.dir.Lookup(id)
	if err != nil || !found {
		return Payload{}, false, err
	}
	var p Payload
	if node := t.node(src); node != nil && (src == dstExecutor || t.client == nil) {
		p, found, err = node.ServeLocal(id, open)
	} else {
		if node != nil {
			addr = node.Addr()
		}
		var dec Decoded
		var size int64
		dec, size, found, err = t.client.FetchInto(addr, id, open)
		p = Payload{Data: dec.Data, SrcExecutor: src, Bytes: size, MemBytes: dec.MemBytes}
	}
	if err != nil || !found {
		// found=false: the node kept nothing under id — the entry was taken
		// by a racing Commit/Drop or displacement after the lookup.
		return Payload{}, false, err
	}
	t.mu.Lock()
	if src == dstExecutor {
		t.stats.LocalFetches++
		t.stats.LocalBytes += p.Bytes
	} else {
		t.stats.RemoteFetches++
		t.stats.RemoteBytes += p.Bytes
	}
	t.mu.Unlock()
	return p, true, nil
}

// Commit retires the listed outputs' directory entries, so nothing
// resolves them anew, then takes them off every local node.
func (t *Plane) Commit(ids []MapOutputID) []Payload {
	t.dir.Retire(ids)
	var out []Payload
	for _, n := range t.nodes {
		out = append(out, n.TakeAll(ids)...)
	}
	return out
}

// Drop is Commit for every output of the shuffle still registered.
func (t *Plane) Drop(shuffle ShuffleID) []Payload {
	t.dir.RetireShuffle(shuffle)
	var out []Payload
	for _, n := range t.nodes {
		out = append(out, n.DropShuffle(shuffle)...)
	}
	return out
}

// Pending returns the number of outputs registered on this process's
// nodes (tests and leak checks).
func (t *Plane) Pending() int {
	total := 0
	for _, n := range t.nodes {
		total += n.Pending()
	}
	return total
}

// Stats snapshots the traffic counters, folding in every local node's
// serve-path copy counters.
func (t *Plane) Stats() Stats {
	t.mu.Lock()
	st := t.stats
	t.mu.Unlock()
	for _, n := range t.nodes {
		n.ServeStats(&st)
	}
	return st
}

// ServeStats returns the serve-path copy counters of the local node keyed
// by exec, zero where this process hosts none. The never-dialing
// construction's single node is keyed 0, so executor 0 reports the serves
// of every executor there.
func (t *Plane) ServeStats(exec int) (st Stats) {
	if n := t.nodes[exec]; n != nil {
		n.ServeStats(&st)
	}
	return st
}

// Close shuts every local listener and drains every pooled connection; a
// fetch in flight during Close closes its connection on return rather
// than re-pooling it, and a later one fails naming the closed transport.
// Registered payloads are left to the caller (Drop them first); in-flight
// serves finish on their own connections. Idempotent.
func (t *Plane) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	for _, n := range t.nodes {
		n.Close()
	}
	if t.client != nil {
		t.client.Close()
	}
	return nil
}
