package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"deca/internal/obs"
)

// This file is the two ends of the wire every construction of Plane is
// built from: a DataServer is one executor's shuffle endpoint (the map
// outputs registered on it plus, when it listens, the length-prefixed
// FETCH protocol serving them), and a DataClient is the pooled dialer the
// fetching side uses.

// Protocol constants. Every request and response is length-delimited by
// construction: the request is three uvarints, the response a status byte
// followed (on a hit) by a uvarint frame length and the frame.
const (
	statusNotFound byte = 0
	statusOK       byte = 1

	// maxWireFrame bounds a response frame length read off the wire.
	maxWireFrame = 1 << 32
	maxRequest   = 3 * binary.MaxVarintLen64 // the longest FETCH request
	respReader   = 64                        // a client's response buffer: a header, a frame's leading varints
	// connPoolSize caps idle pooled connections per destination node.
	connPoolSize = 4
	// frameReadChunk is the granularity at which a fetching client
	// refreshes its read deadline while a frame streams in: the timeout
	// bounds the wait for each chunk, not the whole (arbitrarily large)
	// frame.
	frameReadChunk = 1 << 20
)

// DataServer is one executor endpoint: its registered outputs and — nil
// in the never-dialing construction — its listener, with the serve loop
// answering FETCH requests. Serving is non-consuming: a served entry
// stays pinned in the store for other consumers (reduce retries) until
// the consuming stage commits and the driver
// discards it, per the package's stage-commit ownership rule.
type DataServer struct {
	ln   net.Listener
	addr string

	store outputStore

	closeOnce sync.Once
}

// NewDataServer listens on addr ("host:port"; ":0" picks an ephemeral
// port) and serves immediately. The resolved address is available via
// Addr — the address an executor advertises at registration.
func NewDataServer(addr string) (*DataServer, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listening on %s: %w", addr, err)
	}
	s := newNode()
	s.ln, s.addr = ln, ln.Addr().String()
	go s.acceptLoop()
	return s, nil
}

// newNode returns a node that holds outputs but does not listen.
func newNode() *DataServer {
	s := &DataServer{}
	s.store.init()
	return s
}

// Addr returns the resolved listen address.
func (s *DataServer) Addr() string { return s.addr }

// Put stores a map output. An entry it displaces (a retried or re-run
// map task's earlier registration) is released here: at once, or by the
// last serve in flight on it.
func (s *DataServer) Put(id MapOutputID, p Payload) {
	s.store.put(id, p)
}

// Discard removes the entry for id, if any, and releases it as Put
// releases a displaced one.
func (s *DataServer) Discard(id MapOutputID) {
	s.store.discard(id)
}

// Counters reads the node's serve rows and its ShuffleOutputsPinned
// gauge: the outputs registered on it now, counted under the store lock,
// so the gauge cannot drift from the registry. A zombie awaiting its last
// serve is not counted: its release is already ordered.
func (s *DataServer) Counters() obs.CounterValues {
	v := s.store.counters.Load()
	s.store.mu.Lock()
	v[obs.ShuffleOutputsPinned] = int64(len(s.store.m))
	s.store.mu.Unlock()
	return v
}

// Close shuts the listener. Registered payloads are not touched; take or
// drop them first. In-flight serves finish on their own connections.
func (s *DataServer) Close() (err error) {
	if s.ln != nil {
		s.closeOnce.Do(func() { err = s.ln.Close() })
	}
	return err
}

// acceptLoop serves the listener until Close.
func (s *DataServer) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go s.serve(conn)
	}
}

// serve answers FETCH requests on one server-side connection. Serving
// pins the entry, ships its frame outside the store lock, and unpins —
// the registration survives the transfer for other consumers; only a
// Commit/Drop (or displacement) ends its lifetime. A mid-transfer
// write error drops the connection but never the registration: the
// entry was pinned, not consumed, so the fetcher's retry re-serves it.
func (s *DataServer) serve(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, maxRequest)
	hdr := make([]byte, 1+binary.MaxVarintLen64)
	for {
		id, err := readFetchRequest(br)
		if err != nil {
			return // client closed or spoke garbage; drop the connection
		}
		if !s.serveOne(conn, hdr, id) {
			return
		}
	}
}

// serveOne answers a single FETCH with no write buffer: the status byte
// and length header (hdr, the connection's) lead the frame's segments
// (FrameSegments.writeAfter: one writev batch with the page buffers, spill
// files via the kernel's sendfile path). Returns false when the connection
// should be dropped.
func (s *DataServer) serveOne(conn net.Conn, hdr []byte, id MapOutputID) bool {
	p, e, ok := s.store.beginServe(id)
	if !ok {
		return writeNotFound(conn, hdr)
	}
	defer s.store.endServe(e)
	fs, err := p.frame()
	if err != nil {
		// Unencodable: the entry stays registered until its stage's
		// verdict; the fetcher sees NOTFOUND and recovers by lineage.
		return writeNotFound(conn, hdr)
	}
	defer fs.Release()
	// Counted before the frame's bytes leave: once the fetcher holds the
	// last one it may end the job, and the driver read this node's counters.
	s.store.countServe(fs)
	s.store.counters[obs.BytesSendfile].Add(fs.FileBytes())
	hdr[0] = statusOK
	_, err = fs.writeAfter(net.Buffers{hdr[:1+binary.PutUvarint(hdr[1:], uint64(fs.Len()))]}, conn)
	return err == nil
}

func writeNotFound(conn net.Conn, hdr []byte) bool {
	hdr[0] = statusNotFound
	_, err := conn.Write(hdr[:1])
	return err == nil
}

func readFetchRequest(br *bufio.Reader) (MapOutputID, error) {
	shuf, err := binary.ReadUvarint(br)
	if err != nil {
		return MapOutputID{}, err
	}
	mapTask, err := binary.ReadUvarint(br)
	if err != nil {
		return MapOutputID{}, err
	}
	reduce, err := binary.ReadUvarint(br)
	if err != nil {
		return MapOutputID{}, err
	}
	return MapOutputID{Shuffle: ShuffleID(shuf), MapTask: int(mapTask), Reduce: int(reduce)}, nil
}

// releasePayload frees a payload's buffers when its Data supports it.
func releasePayload(p Payload) {
	if r, ok := p.Data.(interface{ Release() }); ok {
		r.Release()
	}
}

// DataClient dials DataServers and runs FETCH round-trips, pooling idle
// connections per destination address. fetchTimeout bounds each I/O step
// with socket deadlines (0 = none); a connection whose round-trip errored
// is closed and retired rather than pooled.
type DataClient struct {
	fetchTimeout time.Duration

	mu     sync.Mutex
	pools  map[string]chan *dataConn
	closed bool
}

// dataConn is a pooled client connection: the reader responses stream
// through (it may hold their bytes between requests, so it travels with the
// connection) and the bytes a request goes out from, in one write.
type dataConn struct {
	c   net.Conn
	br  *bufio.Reader
	req [maxRequest]byte
}

// NewDataClient builds a client whose FETCH round-trips are bounded by
// fetchTimeout (0 = no deadlines).
func NewDataClient(fetchTimeout time.Duration) *DataClient {
	return &DataClient{
		fetchTimeout: fetchTimeout,
		pools:        make(map[string]chan *dataConn),
	}
}

// FetchInto runs one FETCH round-trip against addr, streaming the
// response frame through open so page bodies land directly in the
// decoder's memory — the frame is never held whole. size is the
// frame's wire length; found=false with nil error is NOTFOUND. A
// transport or decode error retires the connection (its stream position
// is unknown) and returns a non-nil error the caller may retry.
func (c *DataClient) FetchInto(addr string, id MapOutputID, open FrameOpen) (Decoded, int64, bool, error) {
	conn, err := c.getConn(addr)
	if err != nil {
		return Decoded{}, 0, false, err
	}
	dec, size, found, err := conn.fetchInto(id, c.fetchTimeout, open)
	if err != nil {
		conn.c.Close()
		return Decoded{}, 0, false, err
	}
	c.putConn(addr, conn)
	return dec, size, found, nil
}

func (c *DataClient) getConn(addr string) (*dataConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("transport: data client is closed")
	}
	pool := c.pools[addr]
	if pool == nil {
		pool = make(chan *dataConn, connPoolSize)
		c.pools[addr] = pool
	}
	c.mu.Unlock()
	select {
	case conn := <-pool:
		return conn, nil
	default:
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dialing %s: %w", addr, err)
	}
	return &dataConn{c: nc, br: bufio.NewReaderSize(nc, respReader)}, nil
}

// putConn returns a healthy connection to its pool. After Close — or
// when the pool is full — the connection is closed instead of pooled, so
// a fetch that was in flight during Close cannot resurrect a drained
// pool and leak its socket.
func (c *DataClient) putConn(addr string, conn *dataConn) {
	c.mu.Lock()
	pool := c.pools[addr]
	closed := c.closed
	c.mu.Unlock()
	if closed || pool == nil {
		conn.c.Close()
		return
	}
	select {
	case pool <- conn:
	default:
		conn.c.Close()
	}
}

// Close drains and closes every pooled connection; later Fetch calls
// fail and in-flight connections are closed on return instead of pooled.
// Idempotent.
func (c *DataClient) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	pools := c.pools
	c.pools = make(map[string]chan *dataConn)
	c.mu.Unlock()
	for _, pool := range pools {
		for {
			select {
			case conn := <-pool:
				conn.c.Close()
				continue
			default:
			}
			break
		}
	}
}

// fetchInto writes one request and streams one response frame through
// open. The timeout (0 = none) bounds each I/O step — the request
// round-trip to the first response byte, then every frameReadChunk of
// frame progress — rather than the whole transfer: a hung peer still
// surfaces within one timeout (no bytes arrive), while a large frame
// that keeps moving refreshes its deadline with each chunk and is never
// failed for being slow, keeping slow-but-healthy transfers out of the
// retry path. The opener must consume the frame exactly: leftover bytes
// would corrupt the next request on this pooled connection, so under-
// consumption is an error (and the caller retires the connection).
func (c *dataConn) fetchInto(id MapOutputID, timeout time.Duration, open FrameOpen) (Decoded, int64, bool, error) {
	if timeout > 0 {
		if err := c.c.SetDeadline(time.Now().Add(timeout)); err != nil {
			return Decoded{}, 0, false, err
		}
	}
	k := binary.PutUvarint(c.req[:], uint64(id.Shuffle))
	k += binary.PutUvarint(c.req[k:], uint64(id.MapTask))
	k += binary.PutUvarint(c.req[k:], uint64(id.Reduce))
	if _, err := c.c.Write(c.req[:k]); err != nil {
		return Decoded{}, 0, false, err
	}
	status, err := c.br.ReadByte()
	if err != nil {
		return Decoded{}, 0, false, err
	}
	if status == statusNotFound {
		return Decoded{}, 0, false, nil
	}
	if status != statusOK {
		return Decoded{}, 0, false, fmt.Errorf("transport: unknown response status %d", status)
	}
	n, err := binary.ReadUvarint(c.br)
	if err != nil {
		return Decoded{}, 0, false, err
	}
	if n > maxWireFrame {
		return Decoded{}, 0, false, fmt.Errorf("transport: implausible frame length %d", n)
	}
	fr := &frameReader{conn: c, remaining: int64(n), timeout: timeout}
	dec, err := open(fr, int64(n))
	if err != nil {
		return Decoded{}, 0, false, err
	}
	if fr.remaining > 0 {
		return Decoded{}, 0, false, fmt.Errorf("transport: decoder left %d of %d frame bytes unread", fr.remaining, n)
	}
	if timeout > 0 {
		// Clear the deadline so a pooled connection does not time out idle.
		if err := c.c.SetDeadline(time.Time{}); err != nil {
			return Decoded{}, 0, false, err
		}
	}
	return dec, int64(n), true, nil
}

// frameReader hands a decoder exactly the frame's bytes off the pooled
// connection, refreshing the socket read deadline with every
// frameReadChunk of progress (progress resets the clock) and returning
// EOF at the frame boundary so the decoder cannot overrun into the next
// response.
type frameReader struct {
	conn      *dataConn
	remaining int64
	timeout   time.Duration
	sinceArm  int64 // bytes read since the deadline was last armed
}

func (r *frameReader) Read(p []byte) (int, error) {
	if r.remaining <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > r.remaining {
		p = p[:r.remaining]
	}
	if r.timeout > 0 && r.sinceArm >= frameReadChunk {
		r.sinceArm = 0
		if err := r.conn.c.SetReadDeadline(time.Now().Add(r.timeout)); err != nil {
			return 0, err
		}
	}
	n, err := r.conn.br.Read(p)
	r.remaining -= int64(n)
	r.sinceArm += int64(n)
	if err == io.EOF && r.remaining > 0 {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (r *frameReader) ReadByte() (byte, error) {
	if r.remaining <= 0 {
		return 0, io.EOF
	}
	if r.timeout > 0 && r.sinceArm >= frameReadChunk {
		r.sinceArm = 0
		if err := r.conn.c.SetReadDeadline(time.Now().Add(r.timeout)); err != nil {
			return 0, err
		}
	}
	b, err := r.conn.br.ReadByte()
	if err == nil {
		r.remaining--
		r.sinceArm++
	} else if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return b, err
}
