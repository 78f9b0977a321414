package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/beliefs"
	"repro/internal/durable"
	"repro/internal/errs"
	"repro/internal/graph"
	"repro/internal/order"
)

var durTight = []Option{WithMaxIter(500), WithTol(1e-13)}

// applyMirror folds an Update into the reference problem.
func applyMirror(m *Problem, u Update) {
	for _, e := range u.AddEdges {
		m.Graph.AddEdge(e.S, e.T, e.W)
	}
	m.Graph.RemoveEdges(u.RemoveEdges)
	if u.SetExplicit != nil {
		for _, v := range u.SetExplicit.ExplicitNodes() {
			m.Explicit.Set(v, u.SetExplicit.Row(v))
		}
	}
}

// TestDurableOpenMatchesFreshPrepare walks every method through
// Prepare-with-durability, a short update stream, an orderly Close,
// and an Open — pinning the recovered fixpoint to a fresh Prepare on
// the mirrored problem. The autoeps-compact cases run an RCM layout
// under WithAutoEpsilonH and open with a compaction on every commit, so
// the replay commit and the next update both compact on the recovered
// solver — deriving the caller-order matrix from the overlay alone —
// and must land on a fresh auto-εH Prepare's εH and fixpoint.
func TestDurableOpenMatchesFreshPrepare(t *testing.T) {
	const tol = 1e-12
	type durCase struct {
		name string
		m    Method
		auto bool // WithAutoEpsilonH everywhere, compaction on every commit after Open
	}
	var cases []durCase
	for _, m := range []Method{MethodLinBP, MethodLinBPStar, MethodFABP, MethodBP, MethodSBP} {
		cases = append(cases, durCase{m.String(), m, false})
	}
	for _, m := range []Method{MethodLinBP, MethodLinBPStar, MethodFABP} {
		cases = append(cases, durCase{m.String() + "/autoeps-compact", m, true})
	}
	for _, tc := range cases {
		m := tc.m
		t.Run(tc.name, func(t *testing.T) {
			k := 3
			if m == MethodFABP {
				k = 2
			}
			p := randomProblem(t, 70, 150, k, 0.05, 29)
			mirror := &Problem{Graph: p.Graph.Clone(), Explicit: p.Explicit.Clone(), Ho: p.Ho, EpsilonH: p.EpsilonH}
			ref, open := durTight, durTight
			if tc.auto {
				ref = append([]Option{WithAutoEpsilonH(), WithReordering(ReorderRCM)}, durTight...)
				open = append([]Option{WithUpdatePolicy(UpdatePolicy{CompactionRatio: 1e-12})}, ref...)
			}
			fs := durable.NewMemFS()
			opts := append([]Option{WithDurabilityFS(fs, "state", DurabilityPolicy{Sync: SyncAlways})}, ref...)
			s, err := Prepare(p, m, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if !HasStateFS(fs, "state") {
				t.Fatal("no snapshot after durable Prepare")
			}
			ctx := context.Background()
			batches := []Update{
				{AddEdges: []graph.Edge{{S: 0, T: 33, W: 1}, {S: 5, T: 9, W: 0.5}}},
				{RemoveEdges: []graph.Edge{{S: 0, T: 33}},
					SetExplicit: labelMatrix(p.Graph.N(), k, map[int]int{12: 1})},
				{}, // pure re-solve: still sequenced, still recoverable
			}
			for bi, u := range batches {
				if _, err := s.Update(ctx, u); err != nil && !errors.Is(err, ErrNotConverged) {
					t.Fatalf("batch %d: %v", bi, err)
				}
				applyMirror(mirror, u)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			r, err := OpenFS(fs, "state", open...)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if got := r.Stats().Updates; got != int64(len(batches)) {
				t.Errorf("recovered Updates = %d, want %d", got, len(batches))
			}
			res, err := r.Update(ctx, Update{})
			if err != nil && !errors.Is(err, ErrNotConverged) {
				t.Fatal(err)
			}
			want := freshSolve(t, mirror, m, mirror.Explicit, ref...)
			refTol := tol
			if m == MethodBP {
				refTol = 1e-9 // BP's fixpoint tolerance matches the dynamic-plane tests
			}
			if d := maxAbsDiff(res.Beliefs, want); d > refTol {
				t.Errorf("recovered fixpoint diverges from fresh Prepare by %g", d)
			}
			// The recovered solver keeps updating durably.
			u := Update{AddEdges: []graph.Edge{{S: 1, T: 2, W: 1}}}
			res, err = r.Update(ctx, u)
			if err != nil && !errors.Is(err, ErrNotConverged) {
				t.Fatal(err)
			}
			applyMirror(mirror, u)
			if d := maxAbsDiff(res.Beliefs, freshSolve(t, mirror, m, mirror.Explicit, ref...)); d > refTol {
				t.Errorf("post-recovery update diverges by %g", d)
			}
			if tc.auto {
				st := r.Stats()
				if st.Rebuilds == 0 {
					t.Fatal("no compaction ran on the recovered solver")
				}
				fresh, err := Prepare(mirror, m, ref...)
				if err != nil {
					t.Fatal(err)
				}
				defer fresh.Close()
				if got, want := st.EpsilonH, fresh.Stats().EpsilonH; math.Abs(got-want) > 1e-12 {
					t.Errorf("recovered compaction εH = %g, fresh Prepare derives %g", got, want)
				}
			}
		})
	}
}

// TestDurableCrashRecovery loses the process (no Close) after synced
// updates; Open must replay the WAL tail onto the snapshot.
func TestDurableCrashRecovery(t *testing.T) {
	p := randomProblem(t, 60, 130, 3, 0.05, 31)
	mirror := &Problem{Graph: p.Graph.Clone(), Explicit: p.Explicit.Clone(), Ho: p.Ho, EpsilonH: p.EpsilonH}
	fs := durable.NewMemFS()
	opts := append([]Option{WithDurabilityFS(fs, "st", DurabilityPolicy{Sync: SyncAlways})}, durTight...)
	s, err := Prepare(p, MethodLinBP, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, u := range []Update{
		{AddEdges: []graph.Edge{{S: 3, T: 44, W: 1}}},
		{SetExplicit: labelMatrix(p.Graph.N(), 3, map[int]int{7: 0})},
	} {
		if _, err := s.Update(ctx, u); err != nil {
			t.Fatal(err)
		}
		applyMirror(mirror, u)
	}
	// Power loss: no Close, unsynced state dropped.
	fs.Crash()

	r, err := OpenFS(fs, "st", durTight...)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Stats().Updates; got != 2 {
		t.Fatalf("recovered Updates = %d, want 2", got)
	}
	res, err := r.Update(ctx, Update{})
	if err != nil {
		t.Fatal(err)
	}
	want := freshSolve(t, mirror, MethodLinBP, mirror.Explicit, durTight...)
	if d := maxAbsDiff(res.Beliefs, want); d > 1e-12 {
		t.Errorf("crash-recovered fixpoint diverges by %g", d)
	}
}

// TestDurableOpenCorruptSnapshot pins the typed error contract: bit
// rot in the snapshot surfaces ErrCorruptState, never a solver.
func TestDurableOpenCorruptSnapshot(t *testing.T) {
	p := randomProblem(t, 40, 80, 3, 0.05, 37)
	fs := durable.NewMemFS()
	s, err := Prepare(p, MethodLinBP, WithDurabilityFS(fs, "st", DurabilityPolicy{Sync: SyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := fs.FlipBit(durable.Join("st", durable.SnapshotFile), 4200, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFS(fs, "st"); !errors.Is(err, ErrCorruptState) {
		t.Fatalf("Open on flipped bit = %v, want ErrCorruptState", err)
	}
}

// TestUpdateCancelledBeforeSwap pins the commit-abort contract: a
// context cancelled between overlay materialization and the epoch
// swap returns an error, publishes nothing, and the next Update
// commits the retained delta.
func TestUpdateCancelledBeforeSwap(t *testing.T) {
	p := randomProblem(t, 60, 130, 3, 0.05, 41)
	mirror := &Problem{Graph: p.Graph.Clone(), Explicit: p.Explicit.Clone(), Ho: p.Ho, EpsilonH: p.EpsilonH}
	s, err := Prepare(p, MethodLinBP, durTight...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	u1 := Update{AddEdges: []graph.Edge{{S: 2, T: 50, W: 1}}}
	if _, err := s.Update(cancelled, u1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Update err = %v, want context.Canceled", err)
	}
	applyMirror(mirror, u1)
	if st := s.Stats(); st.Epoch != 0 {
		t.Fatalf("epoch advanced to %d despite cancellation", st.Epoch)
	}
	// Readers still serve the pre-batch epoch (n.b. the delta is
	// retained, not rolled back — it simply has not been published).
	u2 := Update{AddEdges: []graph.Edge{{S: 4, T: 17, W: 1}}}
	res, err := s.Update(context.Background(), u2)
	if err != nil {
		t.Fatal(err)
	}
	applyMirror(mirror, u2)
	if st := s.Stats(); st.Epoch != 1 {
		t.Fatalf("retry epoch = %d, want 1 (one swap for both batches)", st.Epoch)
	}
	want := freshSolve(t, mirror, MethodLinBP, mirror.Explicit, durTight...)
	if d := maxAbsDiff(res.Beliefs, want); d > 1e-12 {
		t.Errorf("post-retry fixpoint diverges by %g (pending delta lost?)", d)
	}
}

// TestPrepareRejectsNonFiniteInputs covers the typed-error satellite:
// NaN/Inf edge weights and explicit beliefs must fail validation with
// ErrNonFinite instead of poisoning the kernel.
func TestPrepareRejectsNonFiniteInputs(t *testing.T) {
	p := randomProblem(t, 20, 40, 3, 0.05, 43)
	p.Graph.AddEdge(1, 2, math.NaN()) // slips past AddEdge's w <= 0 panic
	if _, err := Prepare(p, MethodLinBP); !errors.Is(err, errs.ErrNonFinite) {
		t.Fatalf("NaN edge weight: Prepare err = %v, want ErrNonFinite", err)
	}

	p2 := randomProblem(t, 20, 40, 3, 0.05, 43)
	p2.Graph.AddEdge(1, 2, math.Inf(1))
	if _, err := Prepare(p2, MethodLinBP); !errors.Is(err, errs.ErrNonFinite) {
		t.Fatalf("+Inf edge weight: Prepare err = %v, want ErrNonFinite", err)
	}

	p3 := randomProblem(t, 20, 40, 3, 0.05, 43)
	p3.Explicit.Set(4, []float64{math.NaN(), 0, 0})
	if _, err := Prepare(p3, MethodLinBP); !errors.Is(err, errs.ErrNonFinite) {
		t.Fatalf("NaN explicit belief: Prepare err = %v, want ErrNonFinite", err)
	}
}

// TestKernelDivergenceSurfacesNonFinite pins the convergence-check
// satellite: an update operator far past the spectral bound overflows
// the iteration, and the solve must fail fast with ErrNonFinite
// rather than spin to MaxIter on NaN deltas.
func TestKernelDivergenceSurfacesNonFinite(t *testing.T) {
	p := randomProblem(t, 30, 80, 3, 1e200, 47)
	s, err := Prepare(p, MethodLinBP, WithMaxIter(5000))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	dst := beliefs.New(30, 3)
	_, err = s.SolveInto(context.Background(), dst, p.Explicit)
	if !errors.Is(err, errs.ErrNonFinite) {
		t.Fatalf("diverging solve err = %v, want ErrNonFinite", err)
	}
	if st := s.Stats(); st.NotConverged == 0 {
		t.Errorf("divergence not counted as NotConverged: %+v", st)
	}
}

// legacySnapshot builds the format-1 image an earlier writer could
// publish for a kernel method: an i64 ("wide") column-index section
// and a partition-boundary section next to the layout-ordered CSR.
func legacySnapshot(p *Problem, m Method, perm order.Permutation) *durable.Snapshot {
	a, ordering := p.Graph.Adjacency(), ReorderNone
	if perm != nil {
		a, ordering = a.Permute(perm), ReorderRCM
	}
	rp, ci, vals := a.Index()
	n := p.Graph.N()
	img := &durable.Snapshot{
		Method: uint32(m), Ordering: ordering.Code(), N: n, K: p.K(), EpsH: p.EpsilonH,
		PartStarts: []int{0, n / 3, n},
		RowPtr:     make([]int, len(rp)),
		ColIdx:     make([]int, len(ci)),
		Vals:       vals,
		HO:         p.Ho.Data(),
		Explicit:   p.Explicit.Matrix().Data(),
	}
	if perm != nil {
		img.Perm = []int(perm)
	}
	for i, v := range rp {
		img.RowPtr[i] = int(v)
	}
	for i, v := range ci {
		img.ColIdx[i] = int(v)
	}
	return img
}

// TestOpenReadsLegacyFormat pins the on-disk compatibility promise of
// format version 1: a snapshot with a wide column-index section and a
// partition-boundary section opens, and serves the fixpoint of a fresh
// Prepare of the same problem within 1e-12.
func TestOpenReadsLegacyFormat(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    Method
		k    int
		rcm  bool
	}{
		{"LinBP/natural", MethodLinBP, 3, false},
		{"LinBP/rcm", MethodLinBP, 3, true},
		{"FABP/natural", MethodFABP, 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := randomProblem(t, 90, 200, tc.k, 0.05, 43)
			var perm order.Permutation
			if tc.rcm {
				perm = order.RCM(p.Graph.Adjacency())
			}
			fs := durable.NewMemFS()
			if err := durable.WriteSnapshot(fs, "legacy", legacySnapshot(p, tc.m, perm)); err != nil {
				t.Fatal(err)
			}
			s, err := OpenFS(fs, "legacy", durTight...)
			if err != nil {
				t.Fatalf("OpenFS on a legacy snapshot: %v", err)
			}
			defer s.Close()
			got := beliefs.New(p.Graph.N(), tc.k)
			if _, err := s.SolveInto(context.Background(), got, p.Explicit); err != nil && !errors.Is(err, ErrNotConverged) {
				t.Fatal(err)
			}
			want := freshSolve(t, p, tc.m, p.Explicit, durTight...)
			if d := maxAbsDiff(got, want); d > 1e-12 {
				t.Fatalf("legacy snapshot serves a fixpoint %g away from a fresh Prepare", d)
			}
		})
	}
}

// TestOpenRejectsOutOfRangeWideIndex pins the narrowing check of the
// legacy wide sections: an i64 column index at or beyond n (or a row
// pointer beyond the int32 range) is corrupt state, never a wrapped
// int32 index.
func TestOpenRejectsOutOfRangeWideIndex(t *testing.T) {
	p := randomProblem(t, 60, 120, 3, 0.05, 47)
	n := p.Graph.N()
	for name, corrupt := range map[string]func(*durable.Snapshot){
		"colIdx = n":        func(s *durable.Snapshot) { s.ColIdx[len(s.ColIdx)/2] = n },
		"colIdx wraps to 0": func(s *durable.Snapshot) { s.ColIdx[0] = 1 << 32 },
		"colIdx negative":   func(s *durable.Snapshot) { s.ColIdx[1] = -1 },
		"rowPtr beyond int32": func(s *durable.Snapshot) {
			s.RowPtr[1] = 1<<32 + s.RowPtr[1]
		},
	} {
		t.Run(name, func(t *testing.T) {
			img := legacySnapshot(p, MethodLinBP, nil)
			corrupt(img)
			fs := durable.NewMemFS()
			if err := durable.WriteSnapshot(fs, "legacy", img); err != nil {
				t.Fatal(err)
			}
			if s, err := OpenFS(fs, "legacy"); !errors.Is(err, ErrCorruptState) {
				if s != nil {
					s.Close()
				}
				t.Fatalf("OpenFS = %v, want ErrCorruptState", err)
			}
		})
	}
}
