package ctl

import (
	"errors"
	"sync"
	"time"
)

// waiter is the one wait loop of both sides of the control plane. Every
// blocking wait in ctl parks on its cond, with mu held, until its answer is
// in the state mu guards, and ends without one when the waiter is stopped —
// the follower's driver connection died or the driver broadcast Shutdown;
// the driver's executor died — or when the wait's own deadline passes.
// Whatever writes an answer does so under mu and broadcasts cond, so a
// liveness rule has one place to land. The zero waiter is ready to use.
type waiter struct {
	mu   sync.Mutex
	cond sync.Cond
	end  error // why the waiter was stopped; nil while it runs
}

// never is the deadline of a wait that only its answer or a stop ends.
var never time.Time

// errDeadline ends a wait whose deadline passed.
var errDeadline = errors.New("ctl: the wait's deadline passed")

// waitLocked blocks, with w.mu held, until ready (nil: never) reports
// true, or the wait ends: with w.end once the waiter is stopped, with
// errDeadline once deadline (unless never) passed.
func (w *waiter) waitLocked(ready func() bool, deadline time.Time) error {
	if w.cond.L == nil {
		w.cond.L = &w.mu
	}
	expired := false
	if !deadline.IsZero() {
		t := time.AfterFunc(time.Until(deadline), func() {
			w.mu.Lock()
			expired = true
			w.mu.Unlock()
			w.cond.Broadcast()
		})
		defer t.Stop()
	}
	for ready == nil || !ready() {
		switch {
		case w.end != nil:
			return w.end
		case expired:
			return errDeadline
		}
		w.cond.Wait()
	}
	return nil
}

// stop ends every wait on w, current and later, with err. Only the first
// stop counts; it reports whether this one was it.
func (w *waiter) stop(err error) bool {
	w.mu.Lock()
	first := w.end == nil
	if first {
		w.end = err
	}
	w.mu.Unlock()
	w.cond.Broadcast()
	return first
}

// roundTrip registers a wait for the answer to request id, sends the
// request, and waits for readLoop to store the answer (answer). A send
// that fails ends the wait, with the waiter's end if it was stopped. The
// entry is gone when it returns.
func roundTrip[T any](w *waiter, answers map[uint64]*T, id uint64, send func() error) (T, error) {
	w.mu.Lock()
	answers[id] = nil
	w.mu.Unlock()
	err := send()
	w.mu.Lock()
	defer w.mu.Unlock()
	var rep *T
	if err == nil || w.end != nil {
		err = w.waitLocked(func() bool { rep = answers[id]; return rep != nil }, never)
	}
	delete(answers, id)
	if err != nil {
		var zero T
		return zero, err
	}
	return *rep, nil
}

// answer stores rep for request id if a roundTrip waits for it; an answer
// nobody waits for is dropped.
func answer[T any](w *waiter, answers map[uint64]*T, id uint64, rep T) {
	w.mu.Lock()
	if got, waiting := answers[id]; waiting && got == nil {
		answers[id] = &rep
	}
	w.mu.Unlock()
	w.cond.Broadcast()
}
