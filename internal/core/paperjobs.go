package core

import (
	"deca/internal/analysis"
	"deca/internal/udt"
)

// Prebuilt job models for the paper's workloads, as Deca's pre-processing
// would extract them. The analyzer CLI prints the resulting plans; the
// tests check them against the paper's narrative.

// LRJob models the Figure 1 logistic-regression program: a build phase
// that parses and caches LabeledPoints, and an iterate phase whose
// map/reduce computes gradients as DenseVectors combined by vector
// addition.
func LRJob() *Job {
	prog := analysis.LRProgram()
	return &Job{
		Name:    "LogisticRegression",
		Program: prog,
		Phases:  analysis.LRPhases(),
		Containers: []*Container{
			{
				Name:          "points-cache",
				Kind:          CacheBlocks,
				Elem:          udt.LabeledPointType(false),
				WritePhase:    "build-cache",
				ReadPhase:     "iterate",
				CreationOrder: 0,
			},
			{
				Name:          "gradient-agg",
				Kind:          ShuffleBuffer,
				Shuffle:       ShuffleAggregate,
				Key:           udt.Primitive(udt.PrimInt32),
				Elem:          udt.DenseVectorType(),
				WritePhase:    "iterate",
				CreationOrder: 1,
			},
			{
				Name:          "udf-locals",
				Kind:          UDFVariables,
				CreationOrder: 2,
			},
		},
	}
}

// WCJob models WordCount: a two-stage job whose hash-based shuffle buffer
// eagerly aggregates int64 counts per word (§6.1).
func WCJob() *Job {
	prog := analysis.NewProgram()
	prog.AddMethod("WC.map")
	prog.AddMethod("WC.reduce")
	prog.AddMethod("WC.main").Call("WC.map", "WC.reduce")
	return &Job{
		Name:    "WordCount",
		Program: prog,
		Phases: []analysis.Phase{
			{Name: "map", Entries: []string{"WC.map"}},
			{Name: "reduce", Entries: []string{"WC.reduce"}},
		},
		Containers: []*Container{
			{
				Name:          "count-agg",
				Kind:          ShuffleBuffer,
				Shuffle:       ShuffleAggregate,
				Key:           udt.StringType(),
				Elem:          udt.Primitive(udt.PrimInt64),
				WritePhase:    "map",
				CreationOrder: 0,
			},
		},
	}
}

// PRJob models PageRank's adjacency-list construction (Figure 7(b)): a
// groupByKey shuffle whose per-key value array grows during the shuffle
// phase (Variable there), immediately cached as adjacency lists that no
// subsequent phase reassigns — the phased refinement grades the cached
// array RuntimeFixed, so the cache decomposes while the shuffle buffer
// keeps objects: the partially-decomposable case.
func PRJob() *Job {
	prog := analysis.NewProgram()
	adjRef := analysis.FieldRef{Owner: "AdjList", Field: "targets"}
	prog.AddCtor("AdjList.<init>", "AdjList").
		AssignField(adjRef, 1).
		AllocArray("Array[int64]", adjRef, analysis.Const(4))
	prog.AddMethod("AdjList.append").
		AssignField(adjRef, 1). // grow: re-point at a doubled array
		AllocArray("Array[int64]", adjRef, analysis.Sym("n").MulConst(2))
	prog.AddMethod("PR.groupEdges").Call("AdjList.<init>", "AdjList.append")
	prog.AddMethod("PR.iterate") // reads adjacency lists, never reassigns

	adjList := udt.Struct("AdjList",
		udt.NewField("targets", udt.ArrayOf("Array[int64]", udt.Primitive(udt.PrimInt64)), false),
		udt.NewField("count", udt.Primitive(udt.PrimInt32), false),
	)
	return &Job{
		Name:    "PageRank",
		Program: prog,
		Phases: []analysis.Phase{
			{Name: "group-edges", Entries: []string{"PR.groupEdges"}},
			{Name: "iterate", Entries: []string{"PR.iterate"}},
		},
		Containers: []*Container{
			{
				Name:          "adjacency-shuffle",
				Kind:          ShuffleBuffer,
				Shuffle:       ShuffleGroup,
				Key:           udt.Primitive(udt.PrimInt64),
				Elem:          adjList,
				WritePhase:    "group-edges",
				CreationOrder: 0,
			},
			{
				Name:          "adjacency-cache",
				Kind:          CacheBlocks,
				Elem:          adjList,
				WritePhase:    "group-edges",
				ReadPhase:     "iterate",
				CreationOrder: 1,
			},
			{
				Name:          "rank-agg",
				Kind:          ShuffleBuffer,
				Shuffle:       ShuffleAggregate,
				Key:           udt.Primitive(udt.PrimInt64),
				Elem:          udt.Primitive(udt.PrimFloat64),
				WritePhase:    "iterate",
				CreationOrder: 2,
			},
		},
		Flows: []Flow{
			{From: "adjacency-shuffle", To: "adjacency-cache"},
		},
	}
}
