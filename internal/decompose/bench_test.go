package decompose

import (
	"testing"

	"deca/internal/memory"
)

func benchFeatures() []float64 {
	f := make([]float64, 10)
	for i := range f {
		f[i] = float64(i) * 1.5
	}
	return f
}

func BenchmarkVecCodecEncode(b *testing.B) {
	c := Float64VecCodec{Dim: 10}
	m := memory.NewManager(1<<20, 0)
	g := m.NewGroup()
	defer g.Release()
	v := benchFeatures()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.Len() > 32<<20 {
			b.StopTimer()
			g.Reset()
			b.StartTimer()
		}
		Write(g, c, v)
	}
}

func BenchmarkVecCodecDecode(b *testing.B) {
	c := Float64VecCodec{Dim: 10}
	m := memory.NewManager(1<<20, 0)
	g := m.NewGroup()
	defer g.Release()
	ptr := Write(g, c, benchFeatures())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ReadAt(g, c, ptr)
	}
}

// BenchmarkRawFieldAccess is the transformed-code access path: reading a
// field straight from page bytes, no decode, no allocation.
func BenchmarkRawFieldAccess(b *testing.B) {
	c := Float64VecCodec{Dim: 10}
	m := memory.NewManager(1<<20, 0)
	g := m.NewGroup()
	defer g.Release()
	ptr := Write(g, c, benchFeatures())
	seg := g.Bytes(ptr, c.FixedSize())
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += F64(seg, (i%10)*8)
	}
	_ = sink
}

func BenchmarkStringCodecRoundTrip(b *testing.B) {
	m := memory.NewManager(1<<20, 0)
	g := m.NewGroup()
	defer g.Release()
	ptr := Write[string](g, StringCodec{}, "a-representative-shuffle-key")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ReadAt[string](g, StringCodec{}, ptr)
	}
}
