package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/beliefs"
	"repro/internal/coupling"
	"repro/internal/gen"
	"repro/internal/order"
)

// reorderProblem builds one instance per topology for the round-trip
// suite: a random graph and a Kronecker power, both big enough that the
// forced orderings actually shuffle, both small enough to stay fast.
func reorderProblems(t *testing.T, k int) map[string]*Problem {
	t.Helper()
	out := map[string]*Problem{}
	gr := gen.Random(400, 900, uint64(k))
	er, _ := beliefs.Seed(400, k, beliefs.SeedConfig{Fraction: 0.08, Seed: uint64(k + 1)})
	out["random"] = &Problem{Graph: gr, Explicit: er, Ho: coupling.Homophily(k, 0.8), EpsilonH: 0.01}
	gk := gen.Kronecker(5) // 243 nodes
	ek, _ := beliefs.Seed(gk.N(), k, beliefs.SeedConfig{Fraction: 0.08, Seed: uint64(k + 2)})
	out["kronecker"] = &Problem{Graph: gk, Explicit: ek, Ho: coupling.Homophily(k, 0.8), EpsilonH: 0.01}
	for name, p := range out {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return out
}

// TestReorderingStatsAndSolvePath keeps the layout optimizer's
// contract pieces the differential harness does not cover: the chosen
// ordering and bandwidths land in Stats, and the allocating Solve path
// (top assignment built on un-permuted beliefs) agrees with the
// natural-order SolveInto. The full method × k × ordering equivalence
// matrix that used to live here moved to the reusable harness in
// internal/difftest (TestDifferentialMatrix).
func TestReorderingStatsAndSolvePath(t *testing.T) {
	for name, p := range reorderProblems(t, 3) {
		base, err := Prepare(p, MethodLinBP, WithReordering(ReorderNone), WithMaxIter(300))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := beliefs.New(p.Graph.N(), 3)
		if _, err := base.SolveInto(context.Background(), want, p.Explicit); err != nil && !errors.Is(err, ErrNotConverged) {
			t.Fatalf("%s natural: %v", name, err)
		}
		base.Close()
		for _, r := range []Reordering{ReorderRCM, ReorderDegree} {
			s, err := Prepare(p, MethodLinBP, WithReordering(r), WithMaxIter(300))
			if err != nil {
				t.Fatalf("%s %v: %v", name, r, err)
			}
			st := s.Stats()
			if st.Ordering != r {
				t.Fatalf("%s: Stats.Ordering = %v, want %v", name, st.Ordering, r)
			}
			if st.BandwidthBefore <= 0 {
				t.Fatalf("%s: BandwidthBefore = %d", name, st.BandwidthBefore)
			}
			res, err := s.Solve(context.Background(), p.Explicit)
			if err != nil && !errors.Is(err, ErrNotConverged) {
				t.Fatal(err)
			}
			if d := maxAbsDiff(res.Beliefs, want); d > 1e-12 {
				t.Fatalf("%s %v: Solve path diff %g", name, r, d)
			}
			s.Close()
		}
	}
}

// TestReorderingSolveBatch checks the fused batch path across chunk
// boundaries under a forced reordering: 7 requests at k=3 run as one
// 4-block chunk plus one 3-block chunk, and each response must match
// the per-request natural-order solve.
func TestReorderingSolveBatch(t *testing.T) {
	ps := reorderProblems(t, 3)
	for name, p := range ps {
		natural, err := Prepare(p, MethodLinBP, WithReordering(ReorderNone), WithMaxIter(5), WithTol(-1))
		if err != nil {
			t.Fatal(err)
		}
		reordered, err := Prepare(p, MethodLinBP, WithReordering(ReorderRCM), WithMaxIter(5), WithTol(-1))
		if err != nil {
			t.Fatal(err)
		}
		const nreq = 7 // 4 + 3: spans a chunk boundary
		reqs := make([]Request, nreq)
		for i := range reqs {
			e, _ := beliefs.Seed(p.Graph.N(), 3, beliefs.SeedConfig{Fraction: 0.1, Seed: uint64(i + 40)})
			reqs[i] = Request{E: e, Dst: beliefs.New(p.Graph.N(), 3)}
		}
		resps := reordered.SolveBatch(context.Background(), reqs)
		dst := beliefs.New(p.Graph.N(), 3)
		for i, r := range resps {
			if r.Err != nil && !errors.Is(r.Err, ErrNotConverged) {
				t.Fatalf("%s request %d: %v", name, i, r.Err)
			}
			if _, err := natural.SolveInto(context.Background(), dst, reqs[i].E); err != nil && !errors.Is(err, ErrNotConverged) {
				t.Fatal(err)
			}
			if d := maxAbsDiff(r.Beliefs, dst); d > 1e-12 {
				t.Fatalf("%s request %d: reordered batch vs natural solve diff %g", name, i, d)
			}
		}
		natural.Close()
		reordered.Close()
	}
}

// TestReorderingZeroAlloc extends the serving guarantee to reordered
// layouts: the permutation shuffles ride along in preallocated
// scratch, so SolveInto stays at zero steady-state allocations for the
// kernel-backed methods and SolveBatch stays at its one-allocation
// floor (the caller-owned response slice).
func TestReorderingZeroAlloc(t *testing.T) {
	p3 := reorderProblems(t, 3)["random"]
	p2 := reorderProblems(t, 2)["random"]
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		p    *Problem
		m    Method
	}{
		{"LinBP", p3, MethodLinBP},
		{"LinBPStar", p3, MethodLinBPStar},
		{"FABP", p2, MethodFABP},
	} {
		s, err := Prepare(tc.p, tc.m, WithReordering(ReorderRCM))
		if err != nil {
			t.Fatal(err)
		}
		dst := beliefs.New(tc.p.Graph.N(), tc.p.K())
		if _, err := s.SolveInto(ctx, dst, tc.p.Explicit); err != nil {
			t.Fatalf("%s warm: %v", tc.name, err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			s.SolveInto(ctx, dst, tc.p.Explicit)
		})
		if allocs > 0 {
			t.Errorf("%s: %v allocs per reordered SolveInto, want 0", tc.name, allocs)
		}
		s.Close()
	}

	// Batch path: recurring size with caller destinations.
	s, err := Prepare(p3, MethodLinBP, WithReordering(ReorderRCM))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reqs := make([]Request, 4)
	for i := range reqs {
		e, _ := beliefs.Seed(p3.Graph.N(), 3, beliefs.SeedConfig{Fraction: 0.1, Seed: uint64(i + 90)})
		reqs[i] = Request{E: e, Dst: beliefs.New(p3.Graph.N(), 3)}
	}
	s.SolveBatch(ctx, reqs) // warm
	allocs := testing.AllocsPerRun(20, func() {
		for _, r := range s.SolveBatch(ctx, reqs) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	})
	// One allocation — the caller-owned response slice — is the floor
	// of the concurrency-safe batch contract; everything else rides in
	// pooled workspaces.
	if allocs > 1 {
		t.Errorf("%v allocs per reordered SolveBatch, want 1 (the response slice)", allocs)
	}
}

// TestReorderAutoSmallGraphIsNone pins the auto heuristic's size gate:
// preparing a small graph under the default auto strategy must keep the
// natural order (and therefore stay bitwise identical to PR 2 results).
func TestReorderAutoSmallGraphIsNone(t *testing.T) {
	p := reorderProblems(t, 3)["random"]
	s, err := Prepare(p, MethodLinBP)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Stats().Ordering; got != ReorderNone {
		t.Fatalf("auto ordering on a small graph = %v, want none", got)
	}
	if p.Graph.N() >= order.AutoMinNodes {
		t.Fatal("test graph unexpectedly at or above the auto gate")
	}
}
