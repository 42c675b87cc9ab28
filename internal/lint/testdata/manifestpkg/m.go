// Package manifestpkg is golden-test input for the determinism analyzer's
// manifest round-trip: the test makes it a manifest package and lists
// kept, T.method and deleted in chaos.PureDecisionFuncs. Only deleted is
// stale.
package manifestpkg // want "lists manifestpkg.deleted, which is not declared"

// Listed and annotated: no diagnostic.
//
//deca:pure
func kept(a int) int { return a }

type T struct{}

// A listed method is found by its receiver-qualified name.
//
//deca:pure
func (T) method() int { return 0 }
