package workloads

import (
	"deca/internal/datagen"
	"deca/internal/decompose"
	"deca/internal/serial"
)

// Hand-written codecs for the workload UDTs: the Go rendition of the SUDT
// classes Deca's transformation phase generates (Appendix B), straight-line
// offset arithmetic over the layout core.CompileLayout derives from the
// type's classification. No job runs that analysis; integration's
// TestLabeledPointCodecIsCompiledLayout pins the equivalence for LabeledPoint.

// LabeledPointCodec is the StaticFixed layout of Figure 2: label followed
// by the D feature doubles (offset/stride/length of the paper's
// DenseVector are constants under our model and carry no information, so
// the layout stores the data-bearing fields). Dim plays the role of the
// global constant D that the global classification proved.
type LabeledPointCodec struct{ Dim int }

func (c LabeledPointCodec) FixedSize() int { return 8 + 8*c.Dim }

func (c LabeledPointCodec) Size(datagen.LabeledPoint) int { return c.FixedSize() }

func (c LabeledPointCodec) Encode(seg []byte, p datagen.LabeledPoint) {
	if len(p.Features) != c.Dim {
		panic("workloads: LabeledPoint dimension mismatch with StaticFixed layout")
	}
	decompose.PutF64(seg, 0, p.Label)
	for i, x := range p.Features {
		decompose.PutF64(seg, 8+8*i, x)
	}
}

func (c LabeledPointCodec) Decode(seg []byte) (datagen.LabeledPoint, int) {
	f := make([]float64, c.Dim)
	for i := range f {
		f[i] = decompose.F64(seg, 8+8*i)
	}
	return datagen.LabeledPoint{Label: decompose.F64(seg, 0), Features: f}, c.FixedSize()
}

// LabeledPointSer is the Kryo-equivalent serializer for the SparkSer
// baseline: same information, but Unmarshal materializes a fresh object
// (slice allocation included) per record per access.
type LabeledPointSer struct{}

func (LabeledPointSer) Marshal(dst []byte, p datagen.LabeledPoint) []byte {
	dst = serial.AppendFloat64(dst, p.Label)
	return serial.F64Slice{}.Marshal(dst, p.Features)
}

func (LabeledPointSer) Unmarshal(src []byte) (datagen.LabeledPoint, int) {
	if len(src) < 8 {
		return datagen.LabeledPoint{}, 0
	}
	label, _ := serial.Float64(src)
	f, n := serial.F64Slice{}.Unmarshal(src[8:])
	if n <= 0 {
		return datagen.LabeledPoint{}, 0
	}
	return datagen.LabeledPoint{Label: label, Features: f}, 8 + n
}

// lpEstimate models the heap footprint of one boxed LabeledPoint: struct
// header + slice header + backing array (the JVM analogue would add
// object headers; the GC-visible pointer count is what matters).
func lpEstimate(p datagen.LabeledPoint) int { return 48 + 8*len(p.Features) }

// VecSum is the KMeans combine value: a running coordinate sum plus a
// count. With the dimension fixed it is StaticFixed, so Deca's aggregation
// buffer reuses its segment on every combine.
type VecSum struct {
	Sum   []float64
	Count int64
}

// Add combines two partial sums, allocating the result (object-mode
// semantics: the old value dies, a new one is born).
func (a VecSum) Add(b VecSum) VecSum {
	out := make([]float64, len(a.Sum))
	copy(out, a.Sum)
	for i, x := range b.Sum {
		out[i] += x
	}
	return VecSum{Sum: out, Count: a.Count + b.Count}
}

// VecSumCodec is the StaticFixed layout of VecSum for dimension Dim.
type VecSumCodec struct{ Dim int }

func (c VecSumCodec) FixedSize() int  { return 8*c.Dim + 8 }
func (c VecSumCodec) Size(VecSum) int { return c.FixedSize() }
func (c VecSumCodec) Encode(seg []byte, v VecSum) {
	if len(v.Sum) != c.Dim {
		panic("workloads: VecSum dimension mismatch with StaticFixed layout")
	}
	for i, x := range v.Sum {
		decompose.PutF64(seg, 8*i, x)
	}
	decompose.PutI64(seg, 8*c.Dim, v.Count)
}
func (c VecSumCodec) Decode(seg []byte) (VecSum, int) {
	s := make([]float64, c.Dim)
	for i := range s {
		s[i] = decompose.F64(seg, 8*i)
	}
	return VecSum{Sum: s, Count: decompose.I64(seg, 8*c.Dim)}, c.FixedSize()
}

// VecSumSer is the serializer counterpart.
type VecSumSer struct{}

func (VecSumSer) Marshal(dst []byte, v VecSum) []byte {
	dst = serial.F64Slice{}.Marshal(dst, v.Sum)
	return serial.AppendVarint(dst, v.Count)
}

func (VecSumSer) Unmarshal(src []byte) (VecSum, int) {
	s, n := serial.F64Slice{}.Unmarshal(src)
	if n <= 0 {
		return VecSum{}, 0
	}
	c, m := serial.Varint(src[n:])
	if m <= 0 {
		return VecSum{}, 0
	}
	return VecSum{Sum: s, Count: c}, n + m
}
