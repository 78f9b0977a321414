// The epoch-versioned dynamic serving plane. Prepare wraps every
// method's immutable prepared state (a snapshot) in a dynSolver, which
// adds the Update path of the paper's incremental-maintenance story
// (Section 8; SBP Algorithms 3–4) on top of the existing serving
// surface:
//
//   - Deltas accumulate in a mutable overlay over the prepared,
//     layout-ordered CSR (sparse.Overlay: weight additions plus
//     tombstones). Committing a topology update materializes the merged
//     adjacency by one merged-row pass — no COO rebuild, no reordering
//     recompute — and builds a fresh snapshot on it, reusing the
//     prepare-time permutation. The overlay is the kernel methods' only
//     copy of the topology; BP and SBP, whose snapshots are built from a
//     graph, also maintain a caller-order graph.
//   - The snapshot swap is RCU-style: the current-epoch pointer is
//     swapped atomically, solves already in flight drain on the old
//     snapshot, and new solves land on the new one. The commit does not
//     wait for the drain: it hands the old epoch to a closer goroutine
//     (retire), so a retired epoch lives until its last in-flight solve
//     ends, then closes and folds the counters that solve landed. Close
//     waits for every retiring epoch before it releases the durable
//     half, whose mapped arrays a recovered epoch may still read. A
//     reader that loses the race — loads the old pointer just as it
//     retires — observes the old snapshot's ErrClosed and transparently
//     retries on the current epoch, so no caller ever sees a torn graph
//     or a spurious closed error.
//   - Workspaces are pooled per epoch (each snapshot owns its
//     statePools); retiring an epoch closes its pools and folds its
//     counters into the solver-lifetime accumulator, and the kernel's
//     package-level workspace pool recycles the large buffers across
//     epochs.
//   - Update re-solves the maintained problem warm-started from the
//     previous fixpoint for the kernel-backed methods (the fixpoint is
//     unique under the convergence criterion, so warm starting changes
//     the iteration count, never the answer). BP and SBP re-solve cold.
//   - When the overlay's delta-cell count crosses
//     UpdatePolicy.CompactionRatio × base nnz, the commit becomes a
//     compaction rebuild: the reordering strategy replays on the
//     merged caller-order adjacency (for the kernel methods, the merged
//     overlay with the layout permutation undone) and the overlay
//     rebases onto the fresh layout.
//
// Convergence caveat: εH (including a WithAutoEpsilonH derivation) is
// fixed at preparation time. Edge insertions raise the spectral radius
// of the update operator, so a long-running insert-heavy stream should
// either keep a safety margin in εH or watch for ErrNotConverged from
// Update — the same contract the paper's Section 8 sketch implies.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/beliefs"
	"repro/internal/dense"
	"repro/internal/durable"
	"repro/internal/errs"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/sparse"
)

// Update is one delta batch for Solver.Update. Within a batch the
// additions apply before the removals (so a pair both added and
// removed ends up absent); the belief rows are independent of the
// topology delta. The whole batch commits as one epoch.
type Update struct {
	// AddEdges inserts undirected weighted edges (weights must be
	// positive, endpoints within the prepared node range — the node set
	// is fixed at preparation time).
	AddEdges []graph.Edge
	// RemoveEdges deletes all stored edges between each listed endpoint
	// pair (parallel edges go together; weights are ignored and absent
	// pairs are skipped).
	RemoveEdges []graph.Edge
	// SetExplicit installs the non-zero rows of the given n×k residual
	// matrix as new or replacement explicit beliefs of the maintained
	// problem — the belief half of the update stream. Zero rows leave
	// the node's maintained belief untouched (clearing a label is not
	// representable, matching SBP's Algorithm 3 surface).
	SetExplicit *beliefs.Residual
}

// UpdatePolicy tunes the dynamic plane; see WithUpdatePolicy. The zero
// value selects the defaults.
type UpdatePolicy struct {
	// CompactionRatio is the overlay-growth threshold that triggers a
	// compaction rebuild: when the accumulated delta cells exceed
	// CompactionRatio × base nnz, the commit replays the reordering
	// strategy on the merged graph instead of merging over the stale
	// layout. <= 0 selects DefaultCompactionRatio; a very small
	// positive value forces a rebuild on every topology update (the
	// differential tests use this), a huge one disables compaction.
	CompactionRatio float64
	// DisableWarmStart makes Update re-solve from the Bˆ = 0 cold start
	// instead of the previous fixpoint (for benchmarking the warm-start
	// payoff; the served answer is the same either way).
	DisableWarmStart bool
}

// DefaultCompactionRatio is the default overlay-growth threshold: a
// quarter of the base's stored entries. Below it the stale layout's
// locality loss is marginal; above it the O(nnz) relayout amortizes.
const DefaultCompactionRatio = 0.25

// WithUpdatePolicy sets the dynamic plane's compaction and warm-start
// policy for Update; solvers that never see an Update ignore it.
func WithUpdatePolicy(p UpdatePolicy) Option { return func(c *config) { c.policy = p } }

// epochState is one immutable serving epoch — the unit the RCU pointer
// swaps.
type epochState struct {
	snap snapshot
}

// dynSolver is the epoch-versioned Solver every Prepare returns. The
// read path (Solve/SolveInto/SolveBatch/Stats) costs one atomic load
// over the wrapped snapshot; the update path serializes under mu.
type dynSolver struct {
	method Method
	cfg    config
	ho     *dense.Matrix
	n, k   int
	eps    float64

	// cur is the published epoch; the epoch-atomics lint rule pins
	// every touch to Load/Store/Swap/CompareAndSwap.
	//
	//lsbp:atomic
	cur atomic.Pointer[epochState]

	// Everything below mu is the updater's private state: the
	// maintained beliefs and, for BP and SBP, the caller-order graph
	// (lazily cloned on the first Update so purely static solvers pay
	// nothing), the overlay and layout the kernel snapshots rebuild from
	// (the kernel methods keep no graph: the overlay holds their
	// topology), and the compaction bookkeeping.
	mu         sync.Mutex
	closed     bool
	srcGraph   *graph.Graph // BP and SBP only
	srcExp     *beliefs.Residual
	g          *graph.Graph      // current caller-order graph (BP and SBP; private clone)
	exp        *beliefs.Residual // maintained explicit beliefs
	last       *beliefs.Residual // previous fixpoint (warm-start seed)
	layoutA    *sparse.CSR       // prepare-time layout CSR (kernel methods)
	overlay    *sparse.Overlay   // delta overlay (kernel methods)
	perm       order.Permutation
	info       solverInfo
	baseNNZ    int
	deltaCells int

	// pendingSwap records a built-but-unswapped commit (the Update's
	// context was cancelled between materialization and the epoch
	// swap); the next Update retries the swap before anything else.
	pendingSwap bool
	// lastConverged reports that last is the converged fixpoint of the
	// exactly-current epoch — the validity gate of the residual plane's
	// localized touched-row seeding. It is pessimistically cleared at
	// the top of every Update and restored only after a successful
	// re-solve, so any early exit (WAL failure, aborted swap,
	// cancellation) forces the next re-solve to seed fully.
	lastConverged bool
	// epsRederived latches that a compaction re-derived the auto εH to
	// a different value — the fixpoint moved globally, so the next
	// re-solve must not trust a localized seed. Consumed by Update.
	epsRederived bool
	// tlist/tmark are the reusable touched-row accumulator of
	// collectTouched (caller-order ids, deduplicated per batch).
	tlist []int
	tmark []bool
	// dur is the durable half (snapshot + WAL); nil without
	// WithDurability.
	dur *durability
	// retiring counts the retired epochs whose closers still wait for
	// their in-flight solves to drain; Close waits for them before it
	// releases the durable half.
	retiring sync.WaitGroup

	// Stats counters, read without mu by Stats().
	//
	//lsbp:atomic
	epochN, updates, rebuilds, overlayNNZ atomic.Int64

	// degraded latches true when the durable plane breaks stickily
	// (ErrWALBroken from a WAL append): the solver keeps serving reads
	// from the last committed state while Stats advertises the
	// condition so a serving front end can flip to read-only mode.
	//
	//lsbp:atomic
	degraded atomic.Bool

	statsMu sync.Mutex
	retired SolverStats // folded counters of retired epochs
}

// newDynSolver wraps the freshly prepared snapshot. The layout fields
// are lifted off the concrete snapshot types so rebuilds can reuse
// them without re-deriving anything from the problem.
func newDynSolver(p *Problem, m Method, cfg config, inner snapshot) *dynSolver {
	d := &dynSolver{method: m, cfg: cfg, ho: p.Ho, srcExp: p.Explicit}
	switch s := inner.(type) {
	case *linbpSolver:
		d.info, d.perm, d.layoutA = s.solverInfo, s.perm, s.a
	case *bpSolver:
		d.info, d.perm, d.srcGraph = s.solverInfo, s.perm, p.Graph
	case *sbpSolver:
		d.info, d.perm, d.srcGraph = s.solverInfo, s.perm, p.Graph
	}
	d.n, d.k, d.eps = d.info.n, d.info.k, d.info.eps
	d.cur.Store(&epochState{snap: inner})
	return d
}

// Solve, SolveInto, and SolveBatch delegate to the current epoch's
// snapshot. The retry handles the RCU race: a snapshot that retired
// between the pointer load and the solve's lock acquisition answers
// ErrClosed, and as long as the epoch pointer has moved on the call
// simply re-lands on the current snapshot. When the pointer has not
// moved the ErrClosed is real (the solver itself was closed).
func (d *dynSolver) Solve(ctx context.Context, e *beliefs.Residual) (*Result, error) {
	for {
		ep := d.cur.Load()
		res, err := ep.snap.Solve(ctx, e)
		if err != nil && errors.Is(err, errs.ErrClosed) && d.cur.Load() != ep {
			continue
		}
		return res, err
	}
}

func (d *dynSolver) SolveInto(ctx context.Context, dst, e *beliefs.Residual) (SolveInfo, error) {
	for {
		ep := d.cur.Load()
		info, err := ep.snap.SolveInto(ctx, dst, e)
		if err != nil && errors.Is(err, errs.ErrClosed) && d.cur.Load() != ep {
			continue
		}
		return info, err
	}
}

func (d *dynSolver) SolveBatch(ctx context.Context, reqs []Request) []Response {
	for {
		ep := d.cur.Load()
		resp := ep.snap.SolveBatch(ctx, reqs)
		// A closed snapshot fails every request with ErrClosed, so the
		// first response tells the whole story.
		if len(resp) > 0 && errors.Is(resp[0].Err, errs.ErrClosed) && d.cur.Load() != ep {
			continue
		}
		return resp
	}
}

func (d *dynSolver) Stats() SolverStats {
	// The epoch pointer and the retired accumulator are read under one
	// lock so a concurrent swap (which folds the retiring epoch's
	// counters in the same critical section) can never make the totals
	// dip: a reader sees either the old epoch with the accumulator
	// before the fold, or the new epoch with the fold applied.
	d.statsMu.Lock()
	ep := d.cur.Load()
	r := d.retired
	d.statsMu.Unlock()
	st := ep.snap.Stats()
	st.Solves += r.Solves
	st.Batches += r.Batches
	st.BatchRequests += r.BatchRequests
	st.Iterations += r.Iterations
	st.NotConverged += r.NotConverged
	st.Cancelled += r.Cancelled
	st.ResidualRowsRelaxed += r.ResidualRowsRelaxed
	if r.ResidualQueuePeak > st.ResidualQueuePeak {
		st.ResidualQueuePeak = r.ResidualQueuePeak
	}
	st.Epoch = d.epochN.Load()
	st.Updates = d.updates.Load()
	st.Rebuilds = d.rebuilds.Load()
	st.OverlayNNZ = d.overlayNNZ.Load()
	st.Degraded = d.degraded.Load()
	return st
}

// foldRetired accumulates counters into the retired accumulator.
func (d *dynSolver) foldRetired(st SolverStats) {
	d.statsMu.Lock()
	d.foldRetiredLocked(st)
	d.statsMu.Unlock()
}

func (d *dynSolver) foldRetiredLocked(st SolverStats) {
	d.retired.Solves += st.Solves
	d.retired.Batches += st.Batches
	d.retired.BatchRequests += st.BatchRequests
	d.retired.Iterations += st.Iterations
	d.retired.NotConverged += st.NotConverged
	d.retired.Cancelled += st.Cancelled
	d.retired.ResidualRowsRelaxed += st.ResidualRowsRelaxed
	// The queue peak is a lifetime maximum, not a sum.
	if st.ResidualQueuePeak > d.retired.ResidualQueuePeak {
		d.retired.ResidualQueuePeak = st.ResidualQueuePeak
	}
}

// retire closes a retired epoch once its in-flight solves drain and
// folds the counter bumps they landed after the swap. It runs on its
// own goroutine, so a commit never waits for a reader.
func (d *dynSolver) retire(s snapshot, pre SolverStats) {
	defer d.retiring.Done()
	s.Close()
	d.foldRetired(statsDelta(s.Stats(), pre))
}

// statsDelta returns the counter fields of post minus pre — the bumps
// in-flight solves landed on a retiring epoch while it drained.
func statsDelta(post, pre SolverStats) SolverStats {
	return SolverStats{
		Solves:        post.Solves - pre.Solves,
		Batches:       post.Batches - pre.Batches,
		BatchRequests: post.BatchRequests - pre.BatchRequests,
		Iterations:    post.Iterations - pre.Iterations,
		NotConverged:  post.NotConverged - pre.NotConverged,
		Cancelled:     post.Cancelled - pre.Cancelled,
		// The per-snapshot peak is monotone, so the drained snapshot's
		// final peak is the right value to fold (max, not difference).
		ResidualRowsRelaxed: post.ResidualRowsRelaxed - pre.ResidualRowsRelaxed,
		ResidualQueuePeak:   post.ResidualQueuePeak,
	}
}

// Close drains and closes the current epoch after any in-flight Update
// (including its compaction rebuild) finishes, then waits for every
// retired epoch still draining. Idempotent.
func (d *dynSolver) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	err := d.cur.Load().snap.Close()
	d.retiring.Wait()
	if d.dur != nil {
		// After every epoch drains nothing reads the mapped snapshot
		// arrays (a recovered epoch may still serve from them until its
		// last solve ends); flush and release the durable half last.
		if derr := d.dur.close(); err == nil {
			err = derr
		}
	}
	return err
}

// Update applies the delta batch and re-solves the maintained problem,
// returning the refreshed result (warm-started from the previous
// fixpoint for LinBP/LinBP*/FABP). An empty Update{} just (re-)solves
// the maintained problem — the idiom for obtaining the initial
// fixpoint after Prepare. Updates serialize; readers keep serving the
// previous epoch until the commit swaps the snapshot. On a context
// error the delta is already committed (readers see it) and only the
// returned re-solve was aborted; the next Update re-solves from the
// last stored fixpoint.
func (d *dynSolver) Update(ctx context.Context, u Update) (*Result, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, fmt.Errorf("core: %v solver: %w", d.method, errs.ErrClosed)
	}
	if err := d.validateUpdate(u); err != nil {
		return nil, err
	}
	// Write-ahead: the batch is durably logged before any in-memory
	// mutation, so a crash recovers either the pre-batch or post-batch
	// state — never a torn middle. A failed append commits nothing.
	if d.dur != nil {
		if err := d.appendWALLocked(u); err != nil {
			if errors.Is(err, durable.ErrWALBroken) {
				// The WAL is stickily unusable: no further write can
				// commit durably. Latch degraded so Stats (and any
				// front end polling it) reflects read-only reality.
				d.degraded.Store(true)
			}
			return nil, err
		}
	}
	d.initDynState()
	// The localized touched-row seed is only sound when the previous
	// fixpoint converged on exactly the previous epoch and this batch is
	// the whole epoch delta — a pending (retried) swap folds an earlier
	// batch into this commit, so its rows would be missed. Capture the
	// gate before mutating, clear it pessimistically, and restore it
	// only after a successful re-solve.
	seedable := d.lastConverged && !d.pendingSwap && d.last != nil && !d.cfg.policy.DisableWarmStart
	d.lastConverged = false
	touched := d.collectTouched(u)
	if u.SetExplicit != nil {
		for _, v := range u.SetExplicit.ExplicitNodes() {
			d.exp.Set(v, u.SetExplicit.Row(v))
		}
	}
	if d.applyTopologyLocked(u) || d.pendingSwap {
		if err := d.swapSnapshotLocked(ctx); err != nil {
			return nil, err
		}
		if d.epsRederived {
			// The compaction moved the coupling scale: the old fixpoint
			// is globally stale, so this re-solve seeds fully.
			seedable = false
			d.epsRederived = false
		}
	}
	d.updates.Add(1)
	res, err := d.resolveLocked(ctx, seedable, touched)
	if res != nil && res.Beliefs != nil {
		d.last = res.Beliefs.Clone()
		d.lastConverged = res.Converged
	}
	return res, err
}

// collectTouched gathers the caller-order rows whose residuals this
// batch perturbs — the endpoints of every added or removed edge (their
// adjacency rows and degrees change) plus the rows with replacement
// explicit beliefs — deduplicated through the reusable mark array. The
// returned slice aliases d.tlist and is valid until the next Update;
// an empty (non-nil) result means a no-change batch, which the
// residual plane re-solves for free.
func (d *dynSolver) collectTouched(u Update) []int {
	if d.tmark == nil {
		d.tmark = make([]bool, d.n)
	}
	t := d.tlist[:0]
	add := func(i int) {
		if !d.tmark[i] {
			d.tmark[i] = true
			t = append(t, i)
		}
	}
	for _, e := range u.AddEdges {
		add(e.S)
		add(e.T)
	}
	for _, e := range u.RemoveEdges {
		add(e.S)
		add(e.T)
	}
	if u.SetExplicit != nil {
		for _, v := range u.SetExplicit.ExplicitNodes() {
			add(v)
		}
	}
	for _, i := range t {
		d.tmark[i] = false
	}
	d.tlist = t
	return t
}

// applyTopologyLocked folds the batch's edge delta into the overlay
// (kernel methods) or the maintained graph (BP, SBP), reporting whether
// the structure actually changed. Removals of absent pairs are no-ops;
// a batch with no net structural change skips the snapshot rebuild
// entirely (an idempotent delete stream must not pay an O(nnz) epoch
// per call).
func (d *dynSolver) applyTopologyLocked(u Update) bool {
	if len(u.AddEdges) == 0 && len(u.RemoveEdges) == 0 {
		return false
	}
	if d.overlay == nil {
		for _, e := range u.AddEdges {
			d.g.AddEdge(e.S, e.T, e.W)
		}
		removed := d.g.RemoveEdges(u.RemoveEdges)
		d.deltaCells += 2*len(u.AddEdges) + removed
		return len(u.AddEdges) > 0 || removed > 0
	}
	for _, e := range u.AddEdges {
		i, j := d.pm(e.S), d.pm(e.T)
		d.overlay.Add(i, j, e.W)
		if i != j {
			d.overlay.Add(j, i, e.W)
		}
	}
	removed := false
	for _, e := range u.RemoveEdges {
		i, j := d.pm(e.S), d.pm(e.T)
		if d.overlay.Remove(i, j) {
			removed = true
		}
		if i != j {
			d.overlay.Remove(j, i)
		}
	}
	d.deltaCells = d.overlay.DeltaNNZ()
	return len(u.AddEdges) > 0 || removed
}

// pm maps a caller node id into the current layout order.
func (d *dynSolver) pm(i int) int {
	if d.perm == nil {
		return i
	}
	return d.perm[i]
}

func (d *dynSolver) validateUpdate(u Update) error {
	for _, e := range u.AddEdges {
		if e.S < 0 || e.S >= d.n || e.T < 0 || e.T >= d.n {
			return fmt.Errorf("core: update edge (%d,%d) out of range n=%d: %w", e.S, e.T, d.n, errs.ErrDimensionMismatch)
		}
		// !(W > 0) also rejects NaN, which e.W <= 0 would let through —
		// and a NaN weight poisons the maintained graph permanently.
		if !(e.W > 0) || math.IsInf(e.W, 1) {
			return fmt.Errorf("core: update edge (%d,%d) has invalid weight %v (want finite > 0): %w", e.S, e.T, e.W, errs.ErrInvalidInput)
		}
	}
	for _, e := range u.RemoveEdges {
		if e.S < 0 || e.S >= d.n || e.T < 0 || e.T >= d.n {
			return fmt.Errorf("core: update edge (%d,%d) out of range n=%d: %w", e.S, e.T, d.n, errs.ErrDimensionMismatch)
		}
	}
	if u.SetExplicit != nil {
		if u.SetExplicit.N() != d.n || u.SetExplicit.K() != d.k {
			return fmt.Errorf("core: update belief matrix %dx%d does not match n=%d k=%d: %w",
				u.SetExplicit.N(), u.SetExplicit.K(), d.n, d.k, errs.ErrDimensionMismatch)
		}
		if err := u.SetExplicit.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// initDynState lazily sets up the mutable dynamic state on the first
// Update, so a solver that is never updated shares the caller's inputs
// and pays no copy. The kernel methods start an overlay over the
// layout CSR; BP and SBP clone the caller-order graph.
func (d *dynSolver) initDynState() {
	if d.exp != nil {
		return
	}
	d.exp = d.srcExp.Clone()
	switch d.method {
	case MethodLinBP, MethodLinBPStar, MethodFABP:
		d.overlay = sparse.NewOverlay(d.layoutA)
		d.baseNNZ = d.layoutA.NNZ()
	default:
		d.g = d.srcGraph.Clone()
		d.baseNNZ = d.srcGraph.Adjacency().NNZ()
	}
}

// callerAdjacency returns the merged topology in caller order: the
// graph's adjacency for BP and SBP; for the kernel methods the merged
// overlay with the layout permutation undone.
func (d *dynSolver) callerAdjacency() *sparse.CSR {
	if d.overlay == nil {
		return d.g.Adjacency()
	}
	a := d.overlay.Merge()
	if d.perm != nil {
		a = a.Permute(d.perm.Inverse())
	}
	return a
}

// compactionRatio resolves the policy threshold.
func (d *dynSolver) compactionRatio() float64 {
	if d.cfg.policy.CompactionRatio > 0 {
		return d.cfg.policy.CompactionRatio
	}
	return DefaultCompactionRatio
}

// swapSnapshotLocked commits the accumulated topology delta: build the
// next epoch's snapshot (merged overlay on the fast path, a full
// layout replay when the compaction threshold is crossed), swap it in,
// and hand the old epoch to retire, which closes it once its in-flight
// solves drain and then folds their counters into the lifetime
// accumulator — the commit itself waits for no reader. The context is
// re-checked between materialization and the pointer swap: a cancelled
// Update returns without a half-committed epoch (the delta stays
// accumulated and the next Update retries the swap).
func (d *dynSolver) swapSnapshotLocked(ctx context.Context) error {
	kernelMethod := d.overlay != nil
	compact := float64(d.deltaCells) >= d.compactionRatio()*float64(d.baseNNZ)
	info := d.info
	var snap snapshot
	var err error
	switch {
	case compact:
		// Replay the layout optimizer on the merged caller-order
		// adjacency, exactly as Prepare would.
		a := d.callerAdjacency()
		if d.cfg.autoEps && d.method != MethodSBP {
			// Compaction already replays the layout on the merged graph;
			// re-derive the auto εH there too, so a long insert-heavy
			// stream recovers the spectral safety margin instead of
			// serving the stale prepare-time scale. The new epoch's εH
			// is what Stats().EpsilonH reports from here on.
			eps, eerr := autoEpsilon(a, d.ho, d.method != MethodLinBPStar)
			if eerr != nil {
				return fmt.Errorf("core: compaction auto-εH re-derivation: %w", eerr)
			}
			if eps != d.eps {
				d.eps = eps
				d.epsRederived = true
			}
			info.eps = d.eps
		}
		perm, chosen := order.Compute(d.cfg.reorder, a)
		info.ordering = chosen
		info.bandBefore = order.Bandwidth(a, nil)
		info.bandAfter = info.bandBefore
		if perm != nil {
			info.bandAfter = order.Bandwidth(a, perm)
		}
		d.perm = perm
		if kernelMethod {
			la := a
			if perm != nil {
				la = a.Permute(perm)
			}
			d.overlay.Rebase(la)
			d.layoutA = la
			d.baseNNZ = la.NNZ()
			snap, err = d.buildKernelSnapshot(la, info)
		} else {
			d.baseNNZ = a.NNZ()
			snap, err = d.buildGraphSnapshot(info)
		}
		if err == nil {
			d.deltaCells = 0
			d.rebuilds.Add(1)
		}
	case kernelMethod:
		snap, err = d.buildKernelSnapshot(d.overlay.Merge(), info)
	default:
		snap, err = d.buildGraphSnapshot(info)
	}
	if err != nil {
		// The old epoch keeps serving; the delta stays accumulated for
		// the next commit attempt.
		return err
	}
	if cerr := ctx.Err(); cerr != nil {
		// Cancelled between materialization and the swap: discard the
		// built snapshot and leave the delta pending — readers keep the
		// previous epoch, and the next Update retries the commit.
		snap.Close()
		d.pendingSwap = true
		return fmt.Errorf("core: update commit aborted before epoch swap: %w", cerr)
	}
	d.pendingSwap = false
	d.info = info
	old := d.cur.Load()
	// Fold the retiring epoch's counters in the same critical section
	// as the pointer swap (see Stats), so the lifetime totals never dip
	// while the old epoch drains; retire folds the bumps that land
	// during the drain as a delta.
	pre := old.snap.Stats()
	d.statsMu.Lock()
	d.cur.Store(&epochState{snap: snap})
	d.foldRetiredLocked(pre)
	d.statsMu.Unlock()
	d.epochN.Add(1)
	d.overlayNNZ.Store(int64(d.deltaCells))
	d.retiring.Add(1)
	go d.retire(old.snap, pre)
	if compact && d.dur != nil {
		// A compaction rewrote the layout: publish a checkpoint and
		// rotate the log so recovery replays from the fresh base. The
		// in-memory commit above stands either way; a checkpoint error
		// only means recovery still replays the old log.
		if cerr := d.checkpointLocked(); cerr != nil {
			return fmt.Errorf("core: compaction checkpoint: %w", cerr)
		}
	}
	return nil
}

// buildKernelSnapshot prepares a kernel-backed snapshot over the given
// layout-ordered adjacency, reusing the current permutation. Degrees
// are re-derived from the matrix itself (one O(nnz) pass), so the echo
// term always matches the merged weights.
func (d *dynSolver) buildKernelSnapshot(a *sparse.CSR, info solverInfo) (snapshot, error) {
	kc, err := newKernelCoupling(d.method, d.ho, d.eps)
	if err != nil {
		return nil, err
	}
	lay := kernelLayout{a: a, perm: d.perm}
	if kc.degrees {
		lay.d = a.RowSumsSquared()
	}
	return newLinBPSolverOn(kc, info, d.cfg, lay)
}

// buildGraphSnapshot prepares a message-passing snapshot (BP, SBP) on a
// private clone of the current graph — private so later updates to d.g
// never race the snapshot's readers.
func (d *dynSolver) buildGraphSnapshot(info solverInfo) (snapshot, error) {
	g := d.g.Clone()
	if d.method == MethodBP {
		return newBPSolverOn(g, d.ho, info, d.cfg, d.perm)
	}
	return newSBPSolverOn(g, d.ho, info, d.perm)
}

// resolveLocked re-solves the maintained problem on the current epoch:
// warm-started from the previous fixpoint where the method supports it,
// cold otherwise. Under a residual schedule the kernel methods route
// through the residual plane: seedable localized solves seed from
// exactly the touched rows, everything else seeds fully (always under
// ScheduleResidual, only when localized under ScheduleAuto — a full
// residual seed costs a round and converges no faster than warm
// rounds, so Auto prefers rounds there).
func (d *dynSolver) resolveLocked(ctx context.Context, seedable bool, touched []int) (*Result, error) {
	ep := d.cur.Load()
	var start *beliefs.Residual
	if !d.cfg.policy.DisableWarmStart {
		start = d.last
	}
	ls, ok := ep.snap.(*linbpSolver)
	if !ok {
		return ep.snap.Solve(ctx, d.exp)
	}
	dst := beliefs.New(d.n, d.k)
	var info SolveInfo
	var err error
	if d.cfg.schedule == ScheduleRounds || !seedable || start == nil {
		touched = nil
	}
	if d.cfg.schedule == ScheduleResidual || touched != nil {
		info, err = ls.SolveSeeded(ctx, dst, d.exp, start, touched)
	} else {
		info, err = ls.SolveFrom(ctx, dst, d.exp, start)
	}
	if err != nil && !isNotConverged(err) {
		return nil, err
	}
	res := &Result{
		Method: d.method, Beliefs: dst,
		Iterations: info.Iterations, Converged: info.Converged, Delta: info.Delta,
	}
	res.Top = dst.TopAssignment()
	return res, err
}
