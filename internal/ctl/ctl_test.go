package ctl

import (
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"deca/internal/obs"
	"deca/internal/transport"
)

// TestFrameRoundTrip: every field type survives one enc/dec cycle over a
// real socket pair through the frame layer.
func TestFrameRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := newRPCConn(a), newRPCConn(b)
	defer ca.close()
	defer cb.close()

	var e enc
	e.int(-42)
	e.uint(7)
	e.str("héllo world")
	e.bool(true)
	e.bytes([]byte{0, 1, 2, 255})
	appendOutputID(&e, transport.MapOutputID{Shuffle: 9, MapTask: 3, Reduce: 11})
	want := obs.CounterValues{obs.ShuffleRecords: 123, obs.RemoteShuffleBytes: 1 << 30, obs.CacheMemBytes: -5, obs.CacheSwappedBytes: 77}
	e.b = appendSnapshot(e.b, want)

	done := make(chan error, 1)
	go func() { done <- ca.send(msgHeartbeat, e.b) }()
	typ, payload, err := cb.read()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if typ != msgHeartbeat {
		t.Fatalf("type = %d, want %d", typ, msgHeartbeat)
	}
	d := &dec{b: payload}
	if v := d.int(); v != -42 {
		t.Errorf("int = %d", v)
	}
	if v := d.uint(); v != 7 {
		t.Errorf("uint = %d", v)
	}
	if v := d.str(); v != "héllo world" {
		t.Errorf("str = %q", v)
	}
	if v := d.bool(); !v {
		t.Errorf("bool = false")
	}
	if v := d.bytes(); string(v) != string([]byte{0, 1, 2, 255}) {
		t.Errorf("bytes = %v", v)
	}
	if id := decodeOutputID(d); id != (transport.MapOutputID{Shuffle: 9, MapTask: 3, Reduce: 11}) {
		t.Errorf("output id = %v", id)
	}
	if snap := decodeSnapshot(d); snap != want {
		t.Errorf("snapshot = %v, want %v", snap, want)
	}
	if !d.ok() {
		t.Error("decoder reported corruption on a clean frame")
	}
}

// TestDecTruncated: a truncated frame flips the decoder's bad flag and
// returns zero values instead of panicking or over-reading.
func TestDecTruncated(t *testing.T) {
	var e enc
	e.str("hello")
	d := &dec{b: e.b[:2]} // cut mid-string
	if s := d.str(); s != "" {
		t.Errorf("truncated str = %q, want empty", s)
	}
	if d.ok() {
		t.Error("decoder accepted a truncated frame")
	}
	if v := d.int(); v != 0 {
		t.Errorf("post-corruption int = %d, want 0", v)
	}
}

// TestDriverSpawnTimeout: executors that never handshake (here /bin/true,
// which exits immediately) fail the bring-up within spawnTimeout, with
// the fleet torn down rather than half-started.
func TestDriverSpawnTimeout(t *testing.T) {
	defer func(d time.Duration) { spawnTimeout = d }(spawnTimeout)
	spawnTimeout = 500 * time.Millisecond
	start := time.Now()
	_, err := NewDriver(DriverConfig{
		NumExecutors: 2,
		ExecutorCmd:  []string{"true"},
	})
	if err == nil {
		t.Fatal("NewDriver succeeded with executors that never handshake")
	}
	if !strings.Contains(err.Error(), "handshook") {
		t.Errorf("error = %v, want a handshake-timeout error", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("bring-up failure took %v", elapsed)
	}
}

// TestConfigSurface ratchets the control plane's settings. The ceilings
// only go down; a raise states its reason here, as the CI line ratchets
// do. (Driver 9 -> 7 and follower 5 -> 4 when the heartbeat period and
// miss budget became constants and the period one fact in the welcome;
// driver 7 -> 6 when the spawn timeout, which only a test set, became a
// package variable tests shorten, as stageBodyTimeout is.)
func TestConfigSurface(t *testing.T) {
	for _, c := range []struct {
		cfg     any
		ceiling int
	}{{DriverConfig{}, 6}, {FollowerConfig{}, 4}} {
		typ := reflect.TypeOf(c.cfg)
		if n := leafFields(typ); n > c.ceiling {
			t.Errorf("ctl.%s has %d settable values, the ceiling is %d", typ.Name(), n, c.ceiling)
		}
	}
}

// leafFields counts the settable values of a config struct; a field whose
// type is itself a struct of settings counts by its own fields.
func leafFields(t reflect.Type) int {
	n := 0
	for i := range t.NumField() {
		if f := t.Field(i).Type; f.Kind() == reflect.Struct {
			n += leafFields(f)
		} else {
			n++
		}
	}
	return n
}
