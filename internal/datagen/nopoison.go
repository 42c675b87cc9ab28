//go:build !decapoison

package datagen

// Without the decapoison build tag, a yielded buffer keeps its bytes until
// the next record overwrites it: see poison.go.

func spoilLine([]byte)      {}
func spoilVector([]float64) {}
