package chaos

// PureDecisionFuncs is the single source of truth for which fault-
// coordinate and placement decision functions must be pure — computed
// from their inputs and the configured seed alone, with no wall clock,
// no global rand, and no map-iteration dependence. The chaos harness's
// reproducibility contract (same seed ⇒ same faults, across -race runs,
// restarts, and the multiprocess runner) and the scheduler's stable
// placement both rest on exactly these functions.
//
// deca-vet's determinism analyzer consumes this list directly: every
// entry must carry a //deca:pure annotation at its declaration (and,
// within chaos/sched, every //deca:pure function must appear here), so
// an exemption can't be added ad hoc in a far-away file — it has to be
// made in this one, documented place.
//
// Names are normalized full names: pointer markers and type-parameter
// lists stripped, e.g. "deca/internal/chaos.Injector.roll".
var PureDecisionFuncs = []string{
	// Fault-coordinate hashing: the seed → [0,1) roll every injected
	// fault decision derives from.
	"deca/internal/chaos.Injector.roll",
	// Post-completion failure (fail-after-side-effects) coordinates.
	"deca/internal/chaos.Injector.AfterAttempt",
	// Fetch-fault decisions (per-output retry counters are deterministic
	// state, not clocks).
	"deca/internal/chaos.Injector.FetchFault",
	// Mid-merge reduce-death coordinates (exact targeting via
	// MergeFailMatch; the match predicate itself must stay pure too).
	"deca/internal/chaos.Injector.MergeFault",
	// Placement: partition → executor affinity and deterministic
	// re-placement after blacklisting.
	"deca/internal/sched.Cluster.Place",
}
