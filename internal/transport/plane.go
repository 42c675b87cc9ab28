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
	// Publish records exec as id's holder. A previous holder hosted in
	// another process is the directory's to tell to discard (the
	// driver's does); one in this process, the Plane's.
	Publish(id MapOutputID, exec int) error
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

func (d *memDirectory) Publish(id MapOutputID, exec int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.loc[id] = exec
	return nil
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
// waiting out the serves in flight on them — are the only lifetime end
// besides a displacing Register, which releases what it displaced.
type Plane struct {
	dir Directory
	// nodes is keyed by executor id; an executor hosted in another process
	// has none.
	nodes map[int]*DataServer
	// client is nil in the never-dialing construction, whose single node
	// holds every executor's outputs.
	client *DataClient

	// regMu makes a Register one whole replacement. The scheduler runs one
	// attempt of a task at a time, so two Registers of one id do not
	// overlap in a job; the lock keeps that from being a caller's promise:
	// interleaved put, publish and discard of the displaced entry would
	// store a payload no location points at.
	regMu sync.Mutex

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
// registered buffer's segments. A fetched payload still names its source
// executor, so the engine can count how much shuffle data would travel on
// a real network.
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

// Register stores the output on its source executor's node, publishes
// the location and discards id from every other local node: an id has one
// live registration, and whatever a retried or lineage-re-run task
// displaced — on the same node or on another — ends its lifetime here (a
// holder in another process is told to discard by the directory). The
// entry is stored before it is published, so no lookup can resolve to a
// node that does not hold it yet.
func (t *Plane) Register(id MapOutputID, p Payload) error {
	node := t.node(p.SrcExecutor)
	var err error
	switch {
	case p.Segments == nil && p.Encode == nil:
		err = fmt.Errorf("transport: registering %v: payload has neither Segments nor Encode, and only a frame can be served", id)
	case node == nil:
		err = fmt.Errorf("transport: registering %v: no local node for executor %d", id, p.SrcExecutor)
	}
	if err != nil {
		releasePayload(p)
		return err
	}
	t.regMu.Lock()
	defer t.regMu.Unlock()
	node.Put(id, p)
	if err := t.dir.Publish(id, p.SrcExecutor); err != nil {
		// Unpublished, the entry can never be fetched.
		node.Discard(id)
		return fmt.Errorf("transport: publishing %v: %w", id, err)
	}
	for _, n := range t.nodes {
		if n != node {
			n.Discard(id)
		}
	}
	return nil
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
		p, found, err = node.store.serveCopy(id, open)
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
		// by a racing Commit/Drop or discarded after the lookup.
		return Payload{}, false, err
	}
	return p, true, nil
}

// Commit retires the listed outputs' directory entries, so nothing
// resolves them anew, then takes them off every local node.
func (t *Plane) Commit(ids []MapOutputID) []Payload {
	t.dir.Retire(ids)
	var out []Payload
	for _, n := range t.nodes {
		out = append(out, n.store.takeAll(ids)...)
	}
	return out
}

// Drop is Commit for every output of the shuffle still registered.
func (t *Plane) Drop(shuffle ShuffleID) []Payload {
	t.dir.RetireShuffle(shuffle)
	var out []Payload
	for _, n := range t.nodes {
		out = append(out, n.store.dropShuffle(shuffle)...)
	}
	return out
}

// Counters reads the serve rows and the pinned-output gauge of the local
// node keyed by exec, zero where this process hosts none. The
// never-dialing construction's single node is keyed 0, so executor 0
// reports the serves and outputs of every executor there.
func (t *Plane) Counters(exec int) (v obs.CounterValues) {
	if n := t.nodes[exec]; n != nil {
		v = n.Counters()
	}
	return v
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
