// Package freelist is the one kind of free list the process keeps between
// jobs: a bounded list of values of one type, taken before the heap and
// given back when their user is done with them.
//
// A list is a channel of at most n values, not a sync.Pool: a pool empties
// at every collection and keeps a returned value on the P that returned
// it, so whether a job allocated a value would depend on when the collector
// last ran. A list keeps what it parks until the process exits; Totals
// makes that memory visible (the free_list_bytes and free_list_fresh
// counter rows), because what a process holds between jobs is pressure
// like any other.
package freelist

import (
	"sync"
	"sync/atomic"
)

// List is a bounded free list of T. Its owner resets a value where it takes
// or gives it back, whichever its type needs; the list only holds values.
type List[T any] struct {
	free      chan T
	fresh     func() T
	itemBytes int64
	made      atomic.Int64 // Gets that found the list empty
}

// lists is every list the process made, for Totals.
var (
	mu    sync.Mutex
	lists []interface{ totals() (bytes, fresh int64) }
)

// New returns a list that parks at most n values, each counted as
// itemBytes, and calls fresh for a Get that finds it empty.
func New[T any](n int, itemBytes int64, fresh func() T) *List[T] {
	l := &List[T]{free: make(chan T, n), fresh: fresh, itemBytes: itemBytes}
	mu.Lock()
	lists = append(lists, l)
	mu.Unlock()
	return l
}

// Get returns a parked value, or fresh's, counted, when none is parked.
func (l *List[T]) Get() T {
	select {
	case v := <-l.free:
		return v
	default:
		l.made.Add(1)
		return l.fresh()
	}
}

// Put parks v for the next Get; when the list is full the collector takes v.
func (l *List[T]) Put(v T) {
	select {
	case l.free <- v:
	default:
	}
}

func (l *List[T]) totals() (bytes, fresh int64) {
	return int64(len(l.free)) * l.itemBytes, l.made.Load()
}

// Totals returns the bytes the process's lists park now (each list's values
// held times its item bytes) and the values their Gets made fresh since the
// process started. It allocates nothing.
func Totals() (bytes, fresh int64) {
	mu.Lock()
	defer mu.Unlock()
	for _, l := range lists {
		b, f := l.totals()
		bytes, fresh = bytes+b, fresh+f
	}
	return bytes, fresh
}
