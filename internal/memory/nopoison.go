//go:build !decapoison || !(linux || darwin)

package memory

// Without the decapoison build tag, a pooled mapping stays readable: see
// poison.go.

func poison([]byte)   {}
func unpoison([]byte) {}
