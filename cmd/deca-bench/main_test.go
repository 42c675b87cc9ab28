package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"deca/internal/engine"
)

// TestExecutorBinUnderEveryTransport: -executor-bin sets the executor
// command under every -transport, so `-exp deploy -executor-bin <path>`
// runs the deploy experiment's multiproc rows; without it only multiproc
// looks for a binary, and a named binary that is not there is an error.
func TestExecutorBinUnderEveryTransport(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "deca-executor")
	if err := os.WriteFile(bin, nil, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []engine.TransportKind{engine.TransportInProcess, engine.TransportTCP, engine.TransportMultiproc} {
		if cmd, err := executorCmd(kind, bin); err != nil || !slices.Equal(cmd, []string{bin}) {
			t.Errorf("-transport %s -executor-bin %s: command %q, %v", kind, bin, cmd, err)
		}
		if _, err := executorCmd(kind, bin+".missing"); err == nil {
			t.Errorf("-transport %s: a missing -executor-bin was accepted", kind)
		}
	}
	for _, kind := range []engine.TransportKind{engine.TransportInProcess, engine.TransportTCP} {
		if cmd, err := executorCmd(kind, ""); err != nil || cmd != nil {
			t.Errorf("-transport %s without -executor-bin: command %q, %v; want none", kind, cmd, err)
		}
	}
}
