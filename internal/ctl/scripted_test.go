package ctl

import (
	"fmt"
	"net"
	"sync"

	"deca/internal/transport"
)

// ScriptedDriver is the driver side of the control wire, driven frame by
// frame from a test: it handshakes one real Follower, keeps the shuffle
// location directory the follower's lookups resolve against, and sends
// exactly the frames the script asks for — including verdict bytes no real
// driver would send. It grows fakeDriver (heartbeat_test.go) from a frame
// sink into the scripted peer ROADMAP direction 2 wants tests to hold.
// Exported so the external test package, which can import the engine, can
// use it.
type ScriptedDriver struct {
	rc *rpcConn
	// NeedShuffle receives the dataset of every msgNeedShuffle frame.
	NeedShuffle chan int

	mu       sync.Mutex
	dir      map[transport.MapOutputID]int
	done     map[uint64]chan TaskResult
	nextTask uint64
}

// AcceptScripted accepts one follower on ln, completes the handshake
// (announcing numExecutors and the driver's heartbeat period) and starts
// answering its directory RPCs.
func AcceptScripted(ln net.Listener, numExecutors int) (*ScriptedDriver, error) {
	c, err := ln.Accept()
	if err != nil {
		return nil, err
	}
	d := &ScriptedDriver{
		rc:          newRPCConn(c),
		NeedShuffle: make(chan int, 16),
		dir:         make(map[transport.MapOutputID]int),
		done:        make(map[uint64]chan TaskResult),
	}
	if typ, _, err := d.rc.read(); err != nil || typ != msgHello {
		d.rc.close()
		return nil, fmt.Errorf("first frame: type %d, err %v (want hello)", typ, err)
	}
	if err := d.rc.send(msgWelcome, appendWelcome(numExecutors, heartbeatInterval)); err != nil {
		d.rc.close()
		return nil, err
	}
	go d.pump()
	return d, nil
}

// pump serves the follower's inbound frames until the connection closes.
func (d *ScriptedDriver) pump() {
	for {
		typ, payload, err := d.rc.read()
		if err != nil {
			d.mu.Lock()
			for id, ch := range d.done {
				close(ch)
				delete(d.done, id)
			}
			d.mu.Unlock()
			return
		}
		dd := &dec{b: payload}
		switch typ {
		case msgTaskDone:
			taskID, res := decodeTaskResult(dd)
			d.mu.Lock()
			ch := d.done[taskID]
			delete(d.done, taskID)
			d.mu.Unlock()
			if ch != nil {
				ch <- res
			}
		case msgRegisterOutput:
			id := decodeOutputID(dd)
			exec := int(dd.int())
			d.mu.Lock()
			d.dir[id] = exec
			d.mu.Unlock()
		case msgLookupOutput:
			reqID := dd.uint()
			id := decodeOutputID(dd)
			d.mu.Lock()
			exec, found := d.dir[id]
			d.mu.Unlock()
			var e enc
			e.uint(reqID)
			e.bool(found)
			e.int(int64(exec))
			e.str("") // single-executor scripts only ever serve locally
			d.rc.send(msgLookupReply, e.b)
		case msgNeedShuffle:
			d.NeedShuffle <- int(dd.int())
		}
	}
}

// RunTask dispatches one attempt descriptor and waits for its result; a
// connection that dies first yields a failed result. A close of cancel
// (nil = never) sends msgCancelTask for the attempt once, as the real
// driver does, and keeps waiting for the result.
func (d *ScriptedDriver) RunTask(key string, stage, part, attempt int, cancel <-chan struct{}) TaskResult {
	ch := make(chan TaskResult, 1)
	d.mu.Lock()
	d.nextTask++
	taskID := d.nextTask
	d.done[taskID] = ch
	d.mu.Unlock()
	var e enc
	e.uint(taskID)
	e.str(key)
	e.int(int64(stage))
	e.int(int64(part))
	e.int(int64(attempt))
	d.rc.send(msgRunTask, e.b)
	for {
		select {
		case res, ok := <-ch:
			if !ok {
				return TaskResult{ErrMsg: "scripted driver: connection closed"}
			}
			return res
		case <-cancel:
			var ce enc
			ce.uint(taskID)
			d.rc.send(msgCancelTask, ce.b)
			cancel = nil
		}
	}
}

// Materialize announces a materialization of dataset.
func (d *ScriptedDriver) Materialize(dataset, epoch int, shuffle int64) {
	var e enc
	e.int(int64(dataset))
	e.int(int64(epoch))
	e.int(shuffle)
	d.rc.send(msgMaterialize, e.b)
}

// StageEnd sends a stage verdict — any byte, valid or not.
func (d *ScriptedDriver) StageEnd(key string, verdict byte, errMsg string) {
	var e enc
	e.str(key)
	e.b = append(e.b, verdict)
	e.str(errMsg)
	d.rc.send(msgStageEnd, e.b)
}

// Shutdown broadcasts the end of the job, the first thing a driver's Close
// sends.
func (d *ScriptedDriver) Shutdown() { d.rc.send(msgShutdown, nil) }

// Registered reports how many directory entries the follower published.
func (d *ScriptedDriver) Registered() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.dir)
}

// Close drops the control connection.
func (d *ScriptedDriver) Close() { d.rc.close() }
