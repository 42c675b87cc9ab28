// Package ctl is the control plane of the multi-process deployment: the
// driver process supervises deca-executor child processes, and the two
// sides speak a length-prefixed RPC protocol over one TCP connection per
// executor. The control stream carries the handshake, heartbeats, plan
// registration, task dispatch and results, stage verdicts, action-result
// broadcasts, and the shuffle location directory (Register/Lookup become
// RPCs against the driver's map); shuffle payload frames themselves never
// touch it — they flow executor↔executor over the transport data plane
// (transport.DataServer / DataClient), whose addresses are advertised in
// the handshake.
//
// Frame format (reusing internal/serial's varint primitives): a uvarint
// frame length, then one type byte, then the message fields in order —
// ints as zigzag varints, strings and byte blobs length-prefixed. Every
// frame is self-delimiting, so a reader never blocks mid-message, and a
// torn frame (a killed peer) surfaces as a read error that marks the
// executor dead.
package ctl

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"deca/internal/obs"
	"deca/internal/serial"
	"deca/internal/transport"
)

// Message types. The comment gives the direction and payload layout.
const (
	// msgHello (exec→driver): id, token, dataAddr. First frame on a
	// connection; everything else is rejected until it verifies.
	msgHello byte = 1
	// msgWelcome (driver→exec): numExecutors, heartbeat period (ns).
	// Handshake acknowledgement; the follower beats at that period.
	msgWelcome byte = 2
	// msgPlan (driver→exec): spec bytes. Registers the job plan every
	// executor mirrors.
	msgPlan byte = 3
	// msgRunTask (driver→exec): taskID, key, stage, part, attempt.
	msgRunTask byte = 4
	// msgTaskDone (exec→driver): taskID, ok, errMsg,
	// missingDataset, missingEpoch, lostOutputs, result bytes.
	msgTaskDone byte = 5
	// msgStageEnd (driver→exec): key, verdict, errMsg. Broadcast stage
	// outcome; followers act on the verdict, never on their own guesses.
	msgStageEnd byte = 6
	// msgActionResult (driver→exec): key, result bytes. The folded action
	// result every mirror adopts so the programs stay in lock-step.
	msgActionResult byte = 7
	// msgMaterialize (driver→exec): dataset, epoch, shuffle. Announces a
	// shuffle materialization (and its driver-issued shuffle id) before
	// its stages are dispatched.
	msgMaterialize byte = 8
	// msgNeedShuffle (exec→driver): dataset. A follower task pulled an
	// unmaterialized shuffle; the driver runs its stages cluster-wide.
	msgNeedShuffle byte = 9
	// msgRegisterOutput (exec→driver): shuffle, mapTask, reduce, exec.
	// Publishes a map output's location in the driver directory.
	msgRegisterOutput byte = 10
	// msgLookupOutput (exec→driver): reqID, shuffle, mapTask, reduce.
	msgLookupOutput byte = 11
	// msgLookupReply (driver→exec): reqID, found, exec, addr.
	msgLookupReply byte = 12
	// 13 was msgRestoreOutput; retired when lookups became non-consuming
	// under the stage-commit protocol (directory entries survive fetches,
	// so a failed round-trip has nothing to restore).
	// msgDiscardOutput (driver→exec): shuffle, mapTask, reduce. The
	// holder discards the output from its data server.
	msgDiscardOutput byte = 14
	// msgReleaseDataset (driver→exec): dataset, epoch. Recovery-initiated
	// local shuffle release (the next read re-materializes from lineage);
	// followers already on a newer epoch ignore it.
	msgReleaseDataset byte = 15
	// msgHeartbeat (exec→driver): answered reqID, counter snapshot,
	// drained events. Liveness + counters; the only frame that carries a
	// snapshot.
	msgHeartbeat byte = 16
	// msgMetricsRequest (driver→exec): reqID. Asks for a heartbeat now; the
	// first one whose snapshot was taken after reading reqID answers it.
	msgMetricsRequest byte = 17
	// 18 was the metrics reply; retired when a metrics sync became a
	// heartbeat on demand (one sender keeps snapshots in the order taken).
	// msgShutdown (driver→exec): none. The executor exits.
	msgShutdown byte = 19
)

// Verdicts broadcast in msgStageEnd.
const (
	// VerdictOK: the stage completed; followers proceed.
	VerdictOK byte = 0
	// VerdictAbort: the stage failed terminally; followers surface the
	// carried error. Any byte other than VerdictOK reads as an abort (2 was
	// the retired whole-exchange retry round).
	VerdictAbort byte = 1
)

// maxFrame bounds a control frame length read off the wire (action
// results ride the control stream, so frames can be sizeable but never
// shuffle-sized).
const maxFrame = 1 << 30

// TaskResult is one attempt's outcome, shipped back in msgTaskDone.
type TaskResult struct {
	OK     bool
	ErrMsg string // set when !OK
	// MissingDataset/MissingEpoch name a shuffle whose locally-owned
	// output was gone when the task tried to drain it (its reduce ran on
	// an executor that died). The driver releases that materialization so
	// the retry re-runs it from lineage. 0 = not a missing-output failure.
	MissingDataset int
	MissingEpoch   int
	// LostOutputs lists map outputs a reduce attempt found definitively
	// missing (their holder died). The driver re-runs exactly those map
	// tasks from lineage instead of failing the round.
	LostOutputs []transport.MapOutputID
	// Result carries an action task's encoded partial result.
	Result []byte
}

// appendWelcome / decodeWelcome keep the msgWelcome layout in one place.
// A welcome without executors, or whose period is not positive or exceeds
// maxHeartbeatInterval, is a malformed handshake.
func appendWelcome(numExecutors int, period time.Duration) []byte {
	return serial.AppendVarint(serial.AppendVarint(nil, int64(numExecutors)), int64(period))
}

func decodeWelcome(payload []byte) (time.Duration, error) {
	d := &dec{b: payload}
	n, period := d.int(), time.Duration(d.int())
	if !d.ok() || n <= 0 || period <= 0 || period > maxHeartbeatInterval {
		return 0, fmt.Errorf("ctl: malformed welcome (%d executors, heartbeat period %v)", n, period)
	}
	return period, nil
}

// appendTaskResult / decodeTaskResult keep the msgTaskDone layout in one
// place: the follower encodes, the driver decodes.
func appendTaskResult(e *enc, taskID uint64, res TaskResult) {
	e.uint(taskID)
	e.bool(res.OK)
	e.str(res.ErrMsg)
	e.int(int64(res.MissingDataset))
	e.int(int64(res.MissingEpoch))
	e.uint(uint64(len(res.LostOutputs)))
	for _, id := range res.LostOutputs {
		appendOutputID(e, id)
	}
	e.bytes(res.Result)
}

func decodeTaskResult(d *dec) (taskID uint64, res TaskResult) {
	taskID = d.uint()
	res.OK = d.bool()
	res.ErrMsg = d.str()
	res.MissingDataset = int(d.int())
	res.MissingEpoch = int(d.int())
	n := int(d.uint())
	for i := 0; i < n && d.ok(); i++ {
		res.LostOutputs = append(res.LostOutputs, decodeOutputID(d))
	}
	res.Result = append([]byte(nil), d.bytes()...)
	return taskID, res
}

// A counter snapshot — the body of a heartbeat — is an obs.CounterValues on the wire: a uvarint count, then
// that many varints, position = obs.Counter value. A sender built before a
// counter existed ships a shorter vector and the rest reads zero; one built
// after ships a longer one and the surplus is skipped.
func appendSnapshot(dst []byte, v obs.CounterValues) []byte {
	dst = serial.AppendUvarint(dst, uint64(len(v)))
	for _, x := range v {
		dst = serial.AppendVarint(dst, x)
	}
	return dst
}

// decodeSnapshot keeps the positions the sending executor owns
// (obs.ScopeExecutor): a driver-resident counter is never taken from a peer.
func decodeSnapshot(d *dec) (v obs.CounterValues) {
	n := d.count()
	for i := 0; i < n && d.ok(); i++ {
		x := d.int()
		if i < len(v) && obs.Counter(i).Row().Scope == obs.ScopeExecutor {
			v[i] = x
		}
	}
	return v
}

// Heartbeat event shipping: after the snapshot, a heartbeat payload may
// carry a count-prefixed batch of obs events the executor's recorder
// drained. Each event encodes a uvarint count of numeric fields, the
// fields as varints, then the Key string — so numeric fields appended
// in a newer build are skipped cleanly by an older decoder, mirroring
// the snapshot's own forward-compatible layout. A payload that ends at
// the snapshot (an older executor) simply ships no events.
const eventNumFields = 10

func appendEvents(dst []byte, evs []obs.Event) []byte {
	dst = serial.AppendUvarint(dst, uint64(len(evs)))
	for _, e := range evs {
		dst = serial.AppendUvarint(dst, eventNumFields)
		dst = serial.AppendVarint(dst, int64(e.Seq))
		dst = serial.AppendVarint(dst, int64(e.Kind))
		dst = serial.AppendVarint(dst, e.Nanos)
		dst = serial.AppendVarint(dst, int64(e.Exec))
		dst = serial.AppendVarint(dst, int64(e.Stage))
		dst = serial.AppendVarint(dst, int64(e.Part))
		dst = serial.AppendVarint(dst, int64(e.Attempt))
		dst = serial.AppendVarint(dst, e.Shuffle)
		dst = serial.AppendVarint(dst, e.A)
		dst = serial.AppendVarint(dst, e.B)
		dst = serial.AppendString(dst, e.Key)
	}
	return dst
}

// decodeEvents decodes a trailing event batch; an empty remainder means
// the sender shipped none. Both counts are the peer's: each is bounded by
// the payload that remains (dec.count), the batch is pre-sized by what an
// honest sender ships at most, and a malformed batch leaves d bad.
func decodeEvents(d *dec) []obs.Event {
	if len(d.b) == 0 || d.bad {
		return nil
	}
	n := d.count()
	if n == 0 {
		return nil
	}
	evs := make([]obs.Event, 0, min(n, heartbeatEventBatch))
	for i := 0; i < n; i++ {
		nf := d.count()
		var vals [eventNumFields]int64
		for j := 0; j < nf && d.ok(); j++ {
			v := d.int()
			if j < len(vals) {
				vals[j] = v
			}
		}
		key := d.str()
		if !d.ok() {
			return nil
		}
		evs = append(evs, obs.Event{
			Seq: uint64(vals[0]), Kind: obs.Kind(vals[1]), Nanos: vals[2],
			Exec: int32(vals[3]), Stage: int32(vals[4]), Part: int32(vals[5]),
			Attempt: int32(vals[6]), Shuffle: vals[7], A: vals[8], B: vals[9],
			Key: key,
		})
	}
	return evs
}

// appendHeartbeat / decodeHeartbeat keep the msgHeartbeat layout in one
// place: the highest metrics request the executor had read when it took
// the snapshot, the counter snapshot, then the events it drained.
// ok=false means the frame is malformed — the peer is not speaking the
// protocol, and the driver declares it dead rather than guess at what it
// meant.
func appendHeartbeat(answered uint64, snap obs.CounterValues, evs []obs.Event) []byte {
	payload := appendSnapshot(serial.AppendUvarint(nil, answered), snap)
	if len(evs) > 0 {
		payload = appendEvents(payload, evs)
	}
	return payload
}

func decodeHeartbeat(payload []byte) (answered uint64, snap obs.CounterValues, evs []obs.Event, ok bool) {
	d := &dec{b: payload}
	answered = d.uint()
	snap = decodeSnapshot(d)
	evs = decodeEvents(d)
	return answered, snap, evs, d.ok()
}

// enc builds a message payload field by field.
type enc struct{ b []byte }

func (e *enc) int(v int64)   { e.b = serial.AppendVarint(e.b, v) }
func (e *enc) uint(v uint64) { e.b = serial.AppendUvarint(e.b, v) }
func (e *enc) str(s string)  { e.b = serial.AppendString(e.b, s) }

func (e *enc) bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.b = append(e.b, b)
}
func (e *enc) bytes(p []byte) {
	e.b = serial.AppendUvarint(e.b, uint64(len(p)))
	e.b = append(e.b, p...)
}

// dec consumes a message payload field by field; a truncated or corrupt
// frame sets bad and every later read returns zero values, so handlers
// check d.ok() once at the end.
type dec struct {
	b   []byte
	bad bool
}

func (d *dec) ok() bool { return !d.bad }

func (d *dec) int() int64 {
	if d.bad {
		return 0
	}
	v, n := serial.Varint(d.b)
	if n <= 0 {
		d.bad = true
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) uint() uint64 {
	if d.bad {
		return 0
	}
	v, n := serial.Uvarint(d.b)
	if n <= 0 {
		d.bad = true
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count reads an element count a peer supplied. Every element takes at
// least one byte, so a count above the bytes that remain is malformed —
// which bounds the loop, and anything sized by the count, by the frame.
func (d *dec) count() int {
	n := d.uint()
	if n > uint64(len(d.b)) {
		d.bad = true
		return 0
	}
	return int(n)
}

func (d *dec) str() string {
	if d.bad {
		return ""
	}
	v, n := serial.String(d.b)
	if n <= 0 {
		d.bad = true
		return ""
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) bool() bool {
	if d.bad {
		return false
	}
	if len(d.b) < 1 {
		d.bad = true
		return false
	}
	v := d.b[0] != 0
	d.b = d.b[1:]
	return v
}

func (d *dec) bytes() []byte {
	if d.bad {
		return nil
	}
	n, k := serial.Uvarint(d.b)
	if k <= 0 || uint64(len(d.b)-k) < n {
		d.bad = true
		return nil
	}
	v := d.b[k : k+int(n)]
	d.b = d.b[k+int(n):]
	return v
}

// rpcConn is one framed control connection: writes are serialized under a
// mutex (many goroutines send), reads happen on a single reader loop.
type rpcConn struct {
	c  net.Conn
	br *bufio.Reader

	mu sync.Mutex
	bw *bufio.Writer
}

func newRPCConn(c net.Conn) *rpcConn {
	return &rpcConn{c: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c)}
}

// send writes one frame: uvarint(1+len(payload)), type byte, payload.
func (c *rpcConn) send(t byte, payload []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(1+len(payload)))
	if _, err := c.bw.Write(hdr[:n]); err != nil {
		return err
	}
	if err := c.bw.WriteByte(t); err != nil {
		return err
	}
	if _, err := c.bw.Write(payload); err != nil {
		return err
	}
	return c.bw.Flush()
}

// read returns the next frame's type and payload.
func (c *rpcConn) read() (byte, []byte, error) {
	n, err := binary.ReadUvarint(c.br)
	if err != nil {
		return 0, nil, err
	}
	if n == 0 || n > maxFrame {
		return 0, nil, fmt.Errorf("ctl: implausible frame length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(c.br, buf); err != nil {
		return 0, nil, err
	}
	return buf[0], buf[1:], nil
}

func (c *rpcConn) close() { c.c.Close() }
