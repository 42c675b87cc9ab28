//go:build !decapoison

package decompose

// Without the decapoison build tag, a lent value keeps its bytes until the
// chunk lends them again: see poison.go.
func spoil([]byte) {}
