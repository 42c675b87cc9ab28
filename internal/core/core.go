// Package core is Deca's optimizer: it combines the UDT size-type
// classification (packages udt and analysis) with the container lifetime
// model of §4.2 to decide, per data container, whether and how objects are
// decomposed into page groups, which container owns each object
// population, and how secondary containers share the primary's pages
// (§4.3) — the decision Deca's runtime optimizer makes when it intercepts
// a submitted Spark job (Appendix A) — and compiles the byte layouts
// (layout.go). No job executes either: the workloads' containers and codecs
// are hand-written equivalents, the engine does not link this package, and
// the plan is printed by cmd/deca-analyze and checked by tests.
package core

import (
	"fmt"
	"sort"
	"strings"

	"deca/internal/analysis"
	"deca/internal/udt"
)

// ContainerKind enumerates the three §4.2 container kinds.
type ContainerKind int

const (
	// UDFVariables: function-object fields and method locals. Short-lived;
	// Deca leaves them to the minor GC (§4.3.2).
	UDFVariables ContainerKind = iota
	// CacheBlocks: the blocks of a cached (persisted) dataset, living from
	// cache() to unpersist().
	CacheBlocks
	// ShuffleBuffer: created by one phase, read by the next, then dead.
	ShuffleBuffer
)

func (k ContainerKind) String() string {
	switch k {
	case UDFVariables:
		return "udf-variables"
	case CacheBlocks:
		return "cache-blocks"
	case ShuffleBuffer:
		return "shuffle-buffer"
	default:
		return fmt.Sprintf("ContainerKind(%d)", int(k))
	}
}

// ShuffleKind distinguishes the three shuffle-buffer situations of §4.2,
// which have different reference-lifetime behaviour.
type ShuffleKind int

const (
	// ShuffleNone: not a shuffle container.
	ShuffleNone ShuffleKind = iota
	// ShuffleSort: sort-based buffer; references live until buffer death.
	ShuffleSort
	// ShuffleAggregate: hash-based with eager combining (reduceByKey);
	// each combine kills the old value object.
	ShuffleAggregate
	// ShuffleGroup: hash-based grouping (groupByKey); value lists grow,
	// references live until buffer death.
	ShuffleGroup
)

func (k ShuffleKind) String() string {
	switch k {
	case ShuffleNone:
		return "none"
	case ShuffleSort:
		return "sort"
	case ShuffleAggregate:
		return "aggregate"
	case ShuffleGroup:
		return "group"
	default:
		return fmt.Sprintf("ShuffleKind(%d)", int(k))
	}
}

// Container describes one data container of a job stage.
type Container struct {
	Name string
	Kind ContainerKind
	// Shuffle is the buffer situation for ShuffleBuffer containers.
	Shuffle ShuffleKind
	// Key/Elem are the descriptors of the stored objects: for shuffle
	// buffers Key+Elem are the key and value types; for cache blocks Elem
	// is the element type (Key nil).
	Key  *udt.Type
	Elem *udt.Type
	// WritePhase and ReadPhase name the phases (§3.4) that fill and
	// consume the container; ReadPhase == "" means the write phase's
	// classification is used throughout.
	WritePhase string
	ReadPhase  string
	// CreationOrder breaks ownership ties: earlier containers own shared
	// objects (§4.3 rule 2).
	CreationOrder int
}

// Flow records that objects stored in one container are also assigned to
// another (the §4.3.3 sharing patterns, e.g. a groupByKey output cached
// immediately).
type Flow struct {
	From string // container name producing the objects
	To   string // container name also holding them
}

// Job is the input to the optimizer: the program facts, the phase
// decomposition, the containers, and the object flows between them.
type Job struct {
	Name       string
	Program    *analysis.Program
	Phases     []analysis.Phase
	Containers []*Container
	Flows      []Flow
}

// DecomposeMode is the per-container outcome.
type DecomposeMode int

const (
	// KeepObjects: the container stores ordinary objects.
	KeepObjects DecomposeMode = iota
	// FullyDecompose: objects decompose into the container's page group.
	FullyDecompose
	// PartiallyDecompose: the objects cannot be decomposed here, but a
	// downstream container in a Flow decomposes its copy (Figure 7(b)).
	PartiallyDecompose
)

func (m DecomposeMode) String() string {
	switch m {
	case KeepObjects:
		return "keep-objects"
	case FullyDecompose:
		return "decompose"
	case PartiallyDecompose:
		return "partial(downstream decomposes)"
	default:
		return fmt.Sprintf("DecomposeMode(%d)", int(m))
	}
}

// Decision is the optimizer's verdict for one container.
type Decision struct {
	Container *Container
	Mode      DecomposeMode
	// KeySizeType/ElemSizeType are the (phase-refined) classifications the
	// decision rests on.
	KeySizeType  udt.SizeType
	ElemSizeType udt.SizeType
	// ValueReuse: aggregate buffers with a StaticFixed value reuse the
	// value's page segment on every combine (§4.3.2).
	ValueReuse bool
	// PointerArray: the buffer needs an explicit pointer array for random
	// access (sorting/hashing, Figure 6(b)); avoidable only for hash
	// buffers whose key and value are both StaticFixed.
	PointerArray bool
	// Reason explains the verdict for diagnostics.
	Reason string
}

// Ownership assigns each flow a primary (owner) and secondary container
// with the sharing strategy of §4.3.3.
type Ownership struct {
	Primary   string
	Secondary string
	// SharedPages: both containers are decomposable, so the secondary
	// stores pointers (or a page-info copy) into the primary's page group,
	// reference-counted (Figure 7(a)).
	SharedPages bool
}

// Plan is the optimizer output.
type Plan struct {
	Job        *Job
	Decisions  map[string]*Decision
	Ownerships []Ownership
}

// Optimize classifies every container's types in the relevant phases and
// applies the decomposition and ownership rules.
func Optimize(job *Job) (*Plan, error) {
	plan := &Plan{Job: job, Decisions: make(map[string]*Decision)}
	byName := make(map[string]*Container, len(job.Containers))
	for _, c := range job.Containers {
		if _, dup := byName[c.Name]; dup {
			return nil, fmt.Errorf("core: duplicate container name %q", c.Name)
		}
		byName[c.Name] = c
		d, err := decide(job, c)
		if err != nil {
			return nil, err
		}
		plan.Decisions[c.Name] = d
	}

	// Partial decomposition: a non-decomposable container flowing into a
	// decomposable one is marked partial — its copy decomposes downstream
	// (Figure 7(b)). Both decomposable → shared pages (Figure 7(a)).
	for _, f := range job.Flows {
		from, ok := byName[f.From]
		if !ok {
			return nil, fmt.Errorf("core: flow references unknown container %q", f.From)
		}
		to, ok := byName[f.To]
		if !ok {
			return nil, fmt.Errorf("core: flow references unknown container %q", f.To)
		}
		df, dt := plan.Decisions[f.From], plan.Decisions[f.To]
		primary, secondary := owner(from, to)
		plan.Ownerships = append(plan.Ownerships, Ownership{
			Primary:     primary.Name,
			Secondary:   secondary.Name,
			SharedPages: df.Mode == FullyDecompose && dt.Mode == FullyDecompose,
		})
		if df.Mode == KeepObjects && dt.Mode == FullyDecompose {
			df.Mode = PartiallyDecompose
			df.Reason += "; objects copied to decomposable container " + f.To
		}
	}
	return plan, nil
}

// owner applies the §4.3 ownership rules: cached RDDs and shuffle buffers
// outrank UDF variables; among equals, the first-created wins.
func owner(a, b *Container) (primary, secondary *Container) {
	pa, pb := ownPriority(a), ownPriority(b)
	switch {
	case pa > pb:
		return a, b
	case pb > pa:
		return b, a
	case a.CreationOrder <= b.CreationOrder:
		return a, b
	default:
		return b, a
	}
}

func ownPriority(c *Container) int {
	if c.Kind == UDFVariables {
		return 0
	}
	return 1
}

// decide classifies the container's types and applies §4.3.2.
func decide(job *Job, c *Container) (*Decision, error) {
	d := &Decision{Container: c, KeySizeType: udt.Variable, ElemSizeType: udt.Variable}

	if c.Kind == UDFVariables {
		d.Mode = KeepObjects
		d.Reason = "UDF variables are short-lived; minor GC reclaims them cheaply"
		return d, nil
	}

	var err error
	d.ElemSizeType, err = classifyInPhase(job, c.Elem, c.phaseForDecision())
	if err != nil {
		return nil, err
	}
	if c.Key != nil {
		d.KeySizeType, err = classifyInPhase(job, c.Key, c.phaseForDecision())
		if err != nil {
			return nil, err
		}
	}

	switch c.Kind {
	case CacheBlocks:
		if d.ElemSizeType.Decomposable() {
			d.Mode = FullyDecompose
			d.Reason = fmt.Sprintf("element type is %s in phase %q", d.ElemSizeType, c.phaseForDecision())
		} else {
			d.Mode = KeepObjects
			d.Reason = fmt.Sprintf("element type is %s; decomposing would be unsafe", d.ElemSizeType)
		}
	case ShuffleBuffer:
		decideShuffle(c, d)
	}
	return d, nil
}

// decideShuffle applies the per-situation rules of §4.2/§4.3.2.
func decideShuffle(c *Container, d *Decision) {
	keyFixed := c.Key != nil && d.KeySizeType == udt.StaticFixed
	switch c.Shuffle {
	case ShuffleAggregate:
		// Combining kills values; only a StaticFixed value can reuse its
		// segment in place. Anything else stays an object.
		if d.ElemSizeType == udt.StaticFixed {
			d.Mode = FullyDecompose
			d.ValueReuse = true
			d.PointerArray = !keyFixed
			d.Reason = "aggregate value is StaticFixed: reuse page segment per combine"
		} else {
			d.Mode = KeepObjects
			d.Reason = fmt.Sprintf("aggregate value is %s; per-combine size may change", d.ElemSizeType)
		}
	case ShuffleGroup:
		// Values are appended once and never mutated, so RuntimeFixed
		// values decompose too; the per-key list needs a pointer array.
		if d.ElemSizeType.Decomposable() {
			d.Mode = FullyDecompose
			d.PointerArray = true
			d.Reason = fmt.Sprintf("grouped values are append-only %s", d.ElemSizeType)
		} else {
			d.Mode = KeepObjects
			d.Reason = fmt.Sprintf("grouped value type is %s", d.ElemSizeType)
		}
	case ShuffleSort:
		// Records are immutable once inserted; sorting permutes a pointer
		// array over the pages.
		if d.ElemSizeType.Decomposable() && (c.Key == nil || d.KeySizeType.Decomposable()) {
			d.Mode = FullyDecompose
			d.PointerArray = true
			d.Reason = "sorted records are immutable; sort the in-page pointer array"
		} else {
			d.Mode = KeepObjects
			d.Reason = fmt.Sprintf("record types (%s, %s) not decomposable", d.KeySizeType, d.ElemSizeType)
		}
	default:
		d.Mode = KeepObjects
		d.Reason = "unknown shuffle kind"
	}
}

// phaseForDecision picks the phase whose classification governs the
// container: the reading phase when one is named (phased refinement lets
// types that are Variable while being built become fixed once
// materialized, §3.4), else the writing phase.
func (c *Container) phaseForDecision() string {
	if c.ReadPhase != "" {
		return c.ReadPhase
	}
	return c.WritePhase
}

// classifyInPhase runs local classification plus the phase-scoped global
// refinement.
func classifyInPhase(job *Job, t *udt.Type, phase string) (udt.SizeType, error) {
	if t == nil {
		return udt.Variable, fmt.Errorf("core: container lacks an element type descriptor")
	}
	local := udt.Classify(t)
	if job.Program == nil || phase == "" {
		return local, nil
	}
	for _, ph := range job.Phases {
		if ph.Name != phase {
			continue
		}
		scope, err := job.Program.Scope(ph.Entries...)
		if err != nil {
			return local, err
		}
		return analysis.NewClassifier(scope).Refine(t, local), nil
	}
	return local, fmt.Errorf("core: phase %q not defined in job %q", phase, job.Name)
}

// String renders the plan as the analyzer CLI prints it.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan for job %q\n", p.Job.Name)
	names := make([]string, 0, len(p.Decisions))
	for n := range p.Decisions {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d := p.Decisions[n]
		fmt.Fprintf(&b, "  %-24s %-16s -> %-32s", n, d.Container.Kind, d.Mode)
		if d.Container.Kind != UDFVariables {
			fmt.Fprintf(&b, " elem=%s", d.ElemSizeType)
			if d.Container.Key != nil {
				fmt.Fprintf(&b, " key=%s", d.KeySizeType)
			}
			if d.ValueReuse {
				b.WriteString(" [value-reuse]")
			}
			if d.PointerArray {
				b.WriteString(" [ptr-array]")
			}
		}
		fmt.Fprintf(&b, "\n    reason: %s\n", d.Reason)
	}
	for _, o := range p.Ownerships {
		share := "object copy"
		if o.SharedPages {
			share = "shared pages (refcounted)"
		}
		fmt.Fprintf(&b, "  ownership: %s owns objects also in %s (%s)\n", o.Primary, o.Secondary, share)
	}
	return b.String()
}
