package memory

import (
	"os"
	"path/filepath"
	"testing"
)

func BenchmarkGroupAppend(b *testing.B) {
	m := NewManager(1<<20, 0)
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	g := m.NewGroup()
	for i := 0; i < b.N; i++ {
		if g.Len() > 32<<20 {
			b.StopTimer()
			g.Release()
			g = m.NewGroup()
			b.StartTimer()
		}
		g.Append(payload)
	}
	g.Release()
}

func BenchmarkGroupRandomRead(b *testing.B) {
	m := NewManager(1<<20, 0)
	g := m.NewGroup()
	defer g.Release()
	const n = 10000
	ptrs := make([]Ptr, n)
	for i := range ptrs {
		ptrs[i] = g.Append(make([]byte, 64))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink byte
	for i := 0; i < b.N; i++ {
		sink += g.Bytes(ptrs[i%n], 64)[0]
	}
	_ = sink
}

func BenchmarkPoolReuse(b *testing.B) {
	m := NewManager(64<<10, 0)
	payload := make([]byte, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := m.NewGroup()
		for j := 0; j < 64; j++ {
			g.Append(payload)
		}
		g.Release() // pages return to the reserve; steady state allocates nothing
	}
}

func BenchmarkSpillRoundTrip(b *testing.B) {
	m := NewManager(256<<10, 0)
	g := m.NewGroup()
	for i := 0; i < 4096; i++ {
		g.Append(make([]byte, 256))
	}
	path := filepath.Join(b.TempDir(), "spill.bin")
	b.SetBytes(g.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := os.Create(path)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := g.WriteTo(f); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		g2, err := MapGroup(m, path)
		if err != nil {
			b.Fatal(err)
		}
		g2.Release()
	}
	b.StopTimer()
	g.Release()
}
