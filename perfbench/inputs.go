package main

import (
	"math"

	"repro/internal/beliefs"
	"repro/internal/coupling"
	"repro/internal/dense"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/xrand"
)

// Fixed problem parameters shared by every workload.
const (
	classes  = 3
	maxIter  = 200 // lsbpd's default iteration budget
	seedFrac = 0.05
	topK     = 100

	// epsP11 is the coupling scale of the power-11 workloads: half the
	// exact Lemma 8 threshold on that graph with the Fig. 6b Ĥo — the
	// value WithAutoEpsilonH derives, which takes minutes there, so it
	// is recorded here and only its convergence is checked at set-up.
	epsP11 = 0.014979190824705734
	// epsP8 is WithAutoEpsilonH's result on the power-8 graph; every
	// restart cold start must reproduce it to epsRelTol.
	epsP8     = 0.042349442205630958
	epsRelTol = 1e-6

	// tolBudget bounds the distance between two answers to the same
	// problem that may differ in schedule, layout or summation order:
	// the residual plane's documented ‖(I−M)⁻¹‖·tol budget at the
	// default tol of 1e-12 (the differential suite's
	// ResidualScheduleTol).
	tolBudget = 1e-9
	// recoverTol bounds a what-if answer of the recovered solver against
	// the same request answered before the close.
	recoverTol = 1e-12
)

// stream derives an independent generator for one input stream of a
// run, so adding a stream never shifts another's values.
func stream(seed uint64, id uint64) *xrand.Rand {
	return xrand.New(seed*0x9e3779b97f4a7c15 + id*0xbf58476d1ce4e5b9 + 1)
}

// problemBase holds a workload's fixed graph and coupling.
type problemBase struct {
	g   *graph.Graph
	ho  *dense.Matrix
	nnz int
}

func newProblemBase(power int) *problemBase {
	g := gen.Kronecker(power)
	g.WeightedDegrees() // build the cached adjacency and degrees before any timing
	return &problemBase{g: g, ho: coupling.Fig6bResidual(), nnz: g.DirectedEdgeCount()}
}

// labelSets draws count independent 5%-seed explicit-belief sets.
func labelSets(n, count int, seed, id uint64) []*beliefs.Residual {
	rng := stream(seed, id)
	out := make([]*beliefs.Residual, count)
	for i := range out {
		out[i], _ = beliefs.Seed(n, classes, beliefs.SeedConfig{Fraction: seedFrac, Seed: rng.Uint64()})
	}
	return out
}

// beliefRow draws one explicit residual row from the same grid
// beliefs.Seed uses, never all zero.
func beliefRow(rng *xrand.Rand) []float64 {
	row := make([]float64, classes)
	var sum float64
	for c := 0; c < classes-1; c++ {
		row[c] = float64(rng.Intn(21)-10) * 0.01
		sum += row[c]
	}
	row[classes-1] = -sum
	if row[0] == 0 && row[1] == 0 {
		row[0], row[classes-1] = 0.01, -0.01
	}
	return row
}

// edgeKey orders an undirected pair.
func edgeKey(s, t int) [2]int {
	if s > t {
		s, t = t, s
	}
	return [2]int{s, t}
}

// freshEdges draws count unit edges absent from g and from live, and
// marks them live.
func freshEdges(rng *xrand.Rand, g *graph.Graph, live map[[2]int]bool, count int) []graph.Edge {
	a := g.Adjacency()
	out := make([]graph.Edge, 0, count)
	for len(out) < count {
		s, t := rng.Intn(g.N()), rng.Intn(g.N())
		key := edgeKey(s, t)
		if s == t || live[key] || a.At(s, t) != 0 {
			continue
		}
		live[key] = true
		out = append(out, graph.Edge{S: s, T: t, W: 1})
	}
	return out
}

// relabel is one label-only batch: replacement explicit rows.
type relabel struct {
	nodes []int
	rows  [][]float64
}

func newRelabel(rng *xrand.Rand, n, count int) relabel {
	r := relabel{}
	for i := 0; i < count; i++ {
		r.nodes = append(r.nodes, rng.Intn(n))
		r.rows = append(r.rows, beliefRow(rng))
	}
	return r
}

// bruteTopK scans every node of b for the k largest beliefs in class,
// ordered like FrontEnd.TopK (descending, ties by node id).
func bruteTopK(b *beliefs.Residual, class, k int) []serve.NodeBelief {
	better := func(x, y serve.NodeBelief) bool {
		if x.Belief != y.Belief {
			return x.Belief > y.Belief
		}
		return x.Node < y.Node
	}
	top := make([]serve.NodeBelief, 0, k+1)
	for i := 0; i < b.N(); i++ {
		c := serve.NodeBelief{Node: i, Belief: b.Row(i)[class]}
		if len(top) == k && !better(c, top[k-1]) {
			continue
		}
		j := len(top)
		top = append(top, c)
		for j > 0 && better(c, top[j-1]) {
			top[j] = top[j-1]
			j--
		}
		top[j] = c
		if len(top) > k {
			top = top[:k]
		}
	}
	return top
}

// maxAbsDiff is the largest entry-wise distance between two n×k belief
// matrices.
func maxAbsDiff(a, b *beliefs.Residual) float64 {
	var d float64
	for i := 0; i < a.N(); i++ {
		ra, rb := a.Row(i), b.Row(i)
		for c := range ra {
			x := ra[c] - rb[c]
			if math.IsNaN(x) {
				return math.Inf(1)
			}
			if x > d {
				d = x
			} else if -x > d {
				d = -x
			}
		}
	}
	return d
}
