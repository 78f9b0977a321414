// Package serve is the overload-safe front end around a prepared
// Solver: the layer that turns "millions of users" from an OOM recipe
// into bounded, predictable behavior. Its contract has three legs:
//
//   - Admission control. Concurrent Solve callers land in one bounded
//     queue and are coalesced into SolveBatch calls of at most
//     Config.MaxBatch requests served by Config.MaxInFlight dispatch
//     workers — concurrency into the kernel is capped no matter how
//     many goroutines arrive. The fused-batch throughput win is a side
//     effect; the cap is the point.
//
//   - Deadline-aware shedding. When the queue is full the most-stale
//     waiter is evicted with ErrOverloaded (the newcomer is admitted:
//     under overload the freshest requests are the ones whose callers
//     are still listening). A request whose context budget is already
//     below the EWMA-estimated time-to-answer is rejected up front
//     with ErrDeadlineBudget instead of burning kernel time on an
//     answer nobody will wait for. Every rejection is typed — a
//     request is never dropped silently.
//
//   - Graceful degradation. A panicking request fails alone with
//     ErrInternal while its batch cohabitants are retried once as
//     singletons; a sticky durable failure (ErrWALBroken) flips the
//     front end into read-only degraded mode where solves keep serving
//     and writes fail fast with ErrDegraded; Drain stops admission
//     with ErrDraining and flushes the queue for clean restarts.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/beliefs"
	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/metrics"
)

// Re-exported sentinels so callers holding only a FrontEnd can match
// its failure classes without importing the taxonomy package.
var (
	ErrOverloaded     = errs.ErrOverloaded
	ErrDeadlineBudget = errs.ErrDeadlineBudget
	ErrDegraded       = errs.ErrDegraded
	ErrDraining       = errs.ErrDraining
	ErrInternal       = errs.ErrInternal
	ErrClosed         = errs.ErrClosed
)

// Config bounds the front end. The zero value of any field selects
// its default.
type Config struct {
	// MaxInFlight caps concurrent SolveBatch dispatches into the
	// kernel (default 2). This — not the caller count — is the
	// compute-plane concurrency under overload.
	MaxInFlight int
	// MaxBatch caps the requests coalesced into one SolveBatch call
	// (default: twice the solver's BatchHint, at least 4).
	MaxBatch int
	// MaxQueue caps waiting requests; an arrival beyond it evicts the
	// most-stale waiter with ErrOverloaded (default 64).
	MaxQueue int
	// EWMAAlpha is the smoothing factor of the batch-latency
	// estimator the budget shedder consults (default 0.2).
	EWMAAlpha float64
}

func (c *Config) withDefaults(hint int) {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 2 * hint
		if c.MaxBatch < 4 {
			c.MaxBatch = 4
		}
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if !(c.EWMAAlpha > 0) || c.EWMAAlpha > 1 {
		c.EWMAAlpha = 0.2
	}
}

// waiter lifecycle: the admitting goroutine owns enqueueing and (on
// context expiry) cancellation; exactly one other party — a dispatch
// worker, an eviction, or Close — takes the waiter and finishes it.
const (
	wQueued    int32 = iota
	wTaken           // a dispatcher owns it; the result will arrive on done
	wCancelled       // the caller gave up while queued; nobody reads done
)

type waiter struct {
	ctx   context.Context
	e     *beliefs.Residual
	enq   time.Time
	state atomic.Int32
	done  chan struct{}

	// Results, written before done closes.
	dst  *beliefs.Residual
	info core.SolveInfo
	err  error
}

func (w *waiter) finish(dst *beliefs.Residual, info core.SolveInfo, err error) {
	w.answer(dst, info, err)
	close(w.done)
}

// answer records a dispatched waiter's results without waking its
// caller: the dispatch worker closes done only after it has left the
// in-flight count, so a caller holding its answer never observes its
// own batch as still in flight.
func (w *waiter) answer(dst *beliefs.Residual, info core.SolveInfo, err error) {
	w.dst, w.info, w.err = dst, info, err
}

// FrontEnd is the serving surface. Create with New, share freely: all
// methods are safe for concurrent use.
type FrontEnd struct {
	s   core.Solver
	cfg Config
	n   int
	k   int

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*waiter
	inFlight int
	draining bool
	closed   bool
	wg       sync.WaitGroup

	// degraded latches once a write fails with the durable plane's
	// sticky ErrWALBroken; reads keep serving, writes fail fast.
	degraded atomic.Bool

	// fix is the last maintained fixpoint (published by a successful
	// Update) behind the point-lookup and top-K reads.
	fix atomic.Pointer[beliefs.Residual]

	est *metrics.EWMA       // per-batch dispatch latency estimate, ns
	lat metrics.LatencyHist // admission-to-completion latency of served requests

	admitted, completed atomic.Int64
	shedOverload        atomic.Int64
	shedBudget          atomic.Int64
	shedDraining        atomic.Int64
	rejectedInvalid     atomic.Int64
	expired             atomic.Int64 // context died at admission, in queue, or at dispatch
	panics              atomic.Int64
	retriedSingleton    atomic.Int64
	degradedWrites      atomic.Int64
}

// Stats is a point-in-time snapshot of the front end's counters and
// gauges, cheap enough for a metrics scrape on every request.
type Stats struct {
	// Admitted counts requests that entered the queue; Completed the
	// subset that got an answer from the compute plane (including
	// typed solver errors). Admitted − Completed − Expired is the
	// queue's current population plus takes in flight.
	Admitted, Completed int64
	// The shed counters: every rejected request lands in exactly one.
	ShedOverload, ShedBudget, ShedDraining int64
	// RejectedInvalid counts admission-time validation failures
	// (shape mismatch, NaN/Inf beliefs); Expired counts requests
	// whose own context died before the kernel answered.
	RejectedInvalid, Expired int64
	// Panics counts compute-plane panics confined by the front end;
	// RetriedSingleton counts cohabitant requests re-run alone after
	// a batch panic or a poisoned fused chunk.
	Panics, RetriedSingleton int64
	// DegradedWrites counts Updates rejected in read-only mode.
	DegradedWrites int64
	// Degraded and Draining mirror the lifecycle flags; QueueLen and
	// InFlight are instantaneous gauges.
	Degraded, Draining bool
	QueueLen, InFlight int
	// EstBatch is the EWMA batch-dispatch latency the budget shedder
	// uses; P50/P99 are served-request latencies (queue wait
	// included) from the exponential histogram.
	EstBatch, P50, P99 time.Duration
	// Solver is the wrapped solver's own snapshot.
	Solver core.SolverStats
}

// New wraps a prepared solver. The front end does not own the solver:
// closing the front end leaves it usable (the caller that prepared it
// closes it).
func New(s core.Solver, cfg Config) *FrontEnd {
	st := s.Stats()
	cfg.withDefaults(st.BatchHint)
	f := &FrontEnd{
		s:   s,
		cfg: cfg,
		n:   st.N,
		k:   st.K,
		est: metrics.NewEWMA(cfg.EWMAAlpha),
	}
	f.cond = sync.NewCond(&f.mu)
	if st.Degraded {
		f.degraded.Store(true) // e.g. reopened from a broken durable dir
	}
	f.wg.Add(cfg.MaxInFlight)
	for i := 0; i < cfg.MaxInFlight; i++ {
		go f.worker()
	}
	return f
}

// Solve admits one request and blocks until it is answered, shed, or
// its context dies. Every outcome is typed: the beliefs with a nil
// error, a solver error (ErrNotConverged and friends), a shedding
// sentinel (ErrOverloaded, ErrDeadlineBudget, ErrDraining, ErrClosed),
// or the caller's own context error.
func (f *FrontEnd) Solve(ctx context.Context, e *beliefs.Residual) (*beliefs.Residual, core.SolveInfo, error) {
	if err := f.admissible(ctx, e); err != nil {
		return nil, core.SolveInfo{}, err
	}
	w := &waiter{ctx: ctx, e: e, enq: time.Now(), done: make(chan struct{})}

	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, core.SolveInfo{}, fmt.Errorf("serve: %w", errs.ErrClosed)
	}
	if f.draining {
		f.mu.Unlock()
		f.shedDraining.Add(1)
		return nil, core.SolveInfo{}, fmt.Errorf("serve: %w", errs.ErrDraining)
	}
	var evicted *waiter
	for len(f.queue) >= f.cfg.MaxQueue {
		// Full: shed the most-stale waiter to admit the newcomer —
		// under overload the head of the queue has waited longest and
		// is the most likely to miss its deadline anyway.
		evicted = f.queue[0]
		f.queue = f.queue[1:]
		if evicted.state.CompareAndSwap(wQueued, wTaken) {
			break // a live waiter to fail; cancelled ones are free
		}
		evicted = nil
	}
	f.queue = append(f.queue, w)
	f.admitted.Add(1)
	f.cond.Signal()
	f.mu.Unlock()

	if evicted != nil {
		f.shedOverload.Add(1)
		evicted.finish(nil, core.SolveInfo{}, fmt.Errorf("serve: queue full, evicted after %s: %w",
			time.Since(evicted.enq).Round(time.Microsecond), errs.ErrOverloaded))
	}

	select {
	case <-w.done:
	case <-ctx.Done():
		if w.state.CompareAndSwap(wQueued, wCancelled) {
			// Still queued: the dispatcher will discard it unserved.
			f.expired.Add(1)
			return nil, core.SolveInfo{}, fmt.Errorf("serve: abandoned in queue: %w", ctx.Err())
		}
		<-w.done // taken: the answer (or its typed error) is imminent
	}
	if w.err == nil {
		f.lat.Observe(time.Since(w.enq))
	}
	return w.dst, w.info, w.err
}

// admissible runs the shed-before-queue checks: lifecycle, context,
// per-request validation (one malformed caller must not fail the
// cohort it would have been batched with), and the deadline budget.
func (f *FrontEnd) admissible(ctx context.Context, e *beliefs.Residual) error {
	if err := ctx.Err(); err != nil {
		f.expired.Add(1)
		return fmt.Errorf("serve: dead on arrival: %w", err)
	}
	if e == nil || e.N() != f.n || e.K() != f.k {
		f.rejectedInvalid.Add(1)
		if e == nil {
			return fmt.Errorf("serve: nil explicit beliefs: %w", errs.ErrDimensionMismatch)
		}
		return fmt.Errorf("serve: explicit beliefs %dx%d do not match n=%d k=%d: %w",
			e.N(), e.K(), f.n, f.k, errs.ErrDimensionMismatch)
	}
	if err := e.Validate(); err != nil {
		f.rejectedInvalid.Add(1)
		return fmt.Errorf("serve: admission validation: %w", err)
	}
	if dl, ok := ctx.Deadline(); ok {
		if est := f.estimate(); est > 0 && time.Until(dl) < est {
			f.shedBudget.Add(1)
			return fmt.Errorf("serve: %s of budget left, ~%s estimated: %w",
				time.Until(dl).Round(time.Microsecond), est.Round(time.Microsecond), errs.ErrDeadlineBudget)
		}
	}
	return nil
}

// estimate is the expected admission-to-answer latency right now: the
// EWMA batch dispatch time scaled by how many batch slots stand
// between a new arrival and a free worker. Zero until the first batch
// completes (no data beats no service).
func (f *FrontEnd) estimate() time.Duration {
	ew := f.est.Value()
	if ew <= 0 {
		return 0
	}
	f.mu.Lock()
	qlen := len(f.queue)
	f.mu.Unlock()
	slots := f.cfg.MaxBatch * f.cfg.MaxInFlight
	return time.Duration(ew * (1 + float64(qlen)/float64(slots)))
}

// worker is one dispatch loop: it sleeps until work arrives, takes up
// to MaxBatch waiters, and serves them as one SolveBatch.
func (f *FrontEnd) worker() {
	defer f.wg.Done()
	f.mu.Lock()
	for {
		for !f.closed && len(f.queue) == 0 {
			f.cond.Wait()
		}
		if f.closed {
			f.mu.Unlock()
			return
		}
		batch := f.take()
		if len(batch) == 0 {
			continue // everything popped had been cancelled
		}
		f.inFlight++
		f.mu.Unlock()
		f.runBatch(batch)
		f.mu.Lock()
		f.inFlight--
		f.mu.Unlock()
		for _, w := range batch {
			close(w.done)
		}
		f.mu.Lock()
	}
}

// take pops up to MaxBatch live waiters off the queue head. Caller
// holds mu.
func (f *FrontEnd) take() []*waiter {
	n := len(f.queue)
	if n > f.cfg.MaxBatch {
		n = f.cfg.MaxBatch
	}
	batch := make([]*waiter, 0, n)
	for _, w := range f.queue[:n] {
		if w.state.CompareAndSwap(wQueued, wTaken) {
			batch = append(batch, w)
		}
	}
	f.queue = f.queue[n:]
	return batch
}

// runBatch serves one coalesced batch: dispatch-time expiry recheck,
// fused SolveBatch under panic confinement, singleton retries for
// panic cohabitants and poisoned fused chunks, latency bookkeeping.
// It answers every waiter of the batch; the worker wakes them.
func (f *FrontEnd) runBatch(batch []*waiter) {
	ewma := time.Duration(f.est.Value())
	// Partition in place, live waiters first: the worker wakes every
	// waiter of batch afterwards, so none may be overwritten.
	nlive := 0
	for i, w := range batch {
		if err := w.ctx.Err(); err != nil {
			f.expired.Add(1)
			w.answer(nil, core.SolveInfo{}, fmt.Errorf("serve: expired before dispatch: %w", err))
			continue
		}
		// A waiter whose residual budget cannot cover the batch about
		// to run would only ride along to miss its deadline inside the
		// cohort's shared context — shed it typed instead, so served
		// latency stays bounded by deadline + one batch round.
		if dl, ok := w.ctx.Deadline(); ok && ewma > 0 && time.Until(dl) < ewma {
			f.shedBudget.Add(1)
			w.answer(nil, core.SolveInfo{}, fmt.Errorf("serve: %s of budget left at dispatch, ~%s estimated: %w",
				time.Until(dl).Round(time.Microsecond), ewma.Round(time.Microsecond), errs.ErrDeadlineBudget))
			continue
		}
		batch[i], batch[nlive] = batch[nlive], w
		nlive++
	}
	live := batch[:nlive]
	if len(live) == 0 {
		return
	}

	start := time.Now()
	reqs := make([]core.Request, len(live))
	for i, w := range live {
		reqs[i] = core.Request{E: w.e, Dst: beliefs.New(f.n, f.k)}
	}
	resp, panicked := f.solveBatchGuarded(f.batchCtx(live), reqs)
	f.est.Observe(float64(time.Since(start)))

	if panicked {
		// The fused call died; the poison could be any request in it.
		// Each cohabitant retries once alone so exactly the poisoned
		// one(s) fail with ErrInternal.
		f.panics.Add(1)
		for i, w := range live {
			f.retrySingleton(w, reqs[i])
		}
		return
	}
	for i, w := range live {
		r := resp[i]
		if r.Err != nil && errors.Is(r.Err, errs.ErrNonFinite) && len(live) > 1 {
			// A diverging cohabitant poisons its whole fused chunk
			// (requests in a chunk share rounds); innocents recover on
			// a singleton retry, the poisoned one fails alone.
			f.retrySingleton(w, reqs[i])
			continue
		}
		if cerr := w.ctx.Err(); cerr != nil && r.Err == nil {
			// The cohort's shared context outlives each member's own
			// deadline, so an answer can become ready after this
			// waiter's deadline passed. Honor the deadline contract:
			// the caller asked for an answer by then or not at all, and
			// converting late deliveries is what keeps served latency
			// bounded by deadline + one batch round.
			f.expired.Add(1)
			w.answer(nil, core.SolveInfo{}, fmt.Errorf("serve: answer ready after deadline: %w", cerr))
			continue
		}
		f.completed.Add(1)
		w.answer(r.Beliefs, r.Info, r.Err)
	}
}

// batchCtx bounds one dispatch: the latest deadline among the batch's
// waiters (a shared earliest deadline would cancel cohabitants that
// still have budget). Waiters without deadlines make it unbounded.
func (f *FrontEnd) batchCtx(live []*waiter) context.Context {
	var latest time.Time
	for _, w := range live {
		dl, ok := w.ctx.Deadline()
		if !ok {
			return context.Background()
		}
		if dl.After(latest) {
			latest = dl
		}
	}
	ctx, cancel := context.WithDeadline(context.Background(), latest)
	_ = cancel // the deadline reaps it; the batch returns before or at it
	return ctx
}

// solveBatchGuarded confines a compute-plane panic to this batch.
func (f *FrontEnd) solveBatchGuarded(ctx context.Context, reqs []core.Request) (resp []core.Response, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	return f.s.SolveBatch(ctx, reqs), false
}

// retrySingleton re-runs one waiter's request alone, confining a
// repeat panic to exactly that request.
func (f *FrontEnd) retrySingleton(w *waiter, req core.Request) {
	f.retriedSingleton.Add(1)
	info, err := f.solveOneGuarded(w.ctx, req)
	f.completed.Add(1)
	if err != nil {
		w.answer(nil, info, err)
		return
	}
	w.answer(req.Dst, info, nil)
}

func (f *FrontEnd) solveOneGuarded(ctx context.Context, req core.Request) (info core.SolveInfo, err error) {
	defer func() {
		if r := recover(); r != nil {
			f.panics.Add(1)
			err = fmt.Errorf("serve: solve panicked: %v: %w", r, errs.ErrInternal)
		}
	}()
	return f.s.SolveInto(ctx, req.Dst, req.E)
}

// Update applies a delta batch through the wrapped solver and, on
// success, publishes the refreshed fixpoint behind Beliefs and TopK.
// In degraded mode it fails fast with ErrDegraded; a durable failure
// (sticky ErrWALBroken) flips degraded mode so solves keep serving
// while later writes are rejected.
func (f *FrontEnd) Update(ctx context.Context, u core.Update) (*core.Result, error) {
	f.mu.Lock()
	closed, draining := f.closed, f.draining
	f.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("serve: %w", errs.ErrClosed)
	}
	if draining {
		f.shedDraining.Add(1)
		return nil, fmt.Errorf("serve: %w", errs.ErrDraining)
	}
	if f.degraded.Load() {
		f.degradedWrites.Add(1)
		return nil, fmt.Errorf("serve: write rejected, durable plane is broken: %w", errs.ErrDegraded)
	}
	if err := ctx.Err(); err != nil {
		f.expired.Add(1)
		return nil, fmt.Errorf("serve: update dead on arrival: %w", err)
	}
	res, err := f.s.Update(ctx, u)
	if err != nil && errors.Is(err, core.ErrWALBroken) {
		f.degraded.Store(true)
	}
	if res != nil && res.Beliefs != nil {
		f.fix.Store(res.Beliefs)
	}
	return res, err
}

// Beliefs returns node's residual belief row from the last published
// fixpoint. ErrInvalidInput before the first successful Update (run
// Update{} once after New to seed the fixpoint) or for an
// out-of-range node.
func (f *FrontEnd) Beliefs(node int) ([]float64, error) {
	b := f.fix.Load()
	if b == nil {
		return nil, fmt.Errorf("serve: no fixpoint published yet (run an empty Update first): %w", errs.ErrInvalidInput)
	}
	if node < 0 || node >= f.n {
		return nil, fmt.Errorf("serve: node %d out of range [0,%d): %w", node, f.n, errs.ErrInvalidInput)
	}
	row := b.Row(node)
	out := make([]float64, len(row))
	copy(out, row)
	return out, nil
}

// NodeBelief is one TopK entry.
type NodeBelief struct {
	Node   int     `json:"node"`
	Belief float64 `json:"belief"`
}

// TopK returns the k nodes with the highest residual belief for
// class, descending (ties by node id). Same fixpoint requirement as
// Beliefs.
func (f *FrontEnd) TopK(class, k int) ([]NodeBelief, error) {
	b := f.fix.Load()
	if b == nil {
		return nil, fmt.Errorf("serve: no fixpoint published yet (run an empty Update first): %w", errs.ErrInvalidInput)
	}
	if class < 0 || class >= f.k {
		return nil, fmt.Errorf("serve: class %d out of range [0,%d): %w", class, f.k, errs.ErrInvalidInput)
	}
	if k <= 0 {
		return nil, fmt.Errorf("serve: top-k needs k >= 1, got %d: %w", k, errs.ErrInvalidInput)
	}
	return topK(b.Matrix().Data(), f.k, class, k), nil
}

// outranks is TopK's order: higher belief first, then lower node id.
func outranks(a, b NodeBelief) bool {
	if a.Belief != b.Belief {
		return a.Belief > b.Belief
	}
	return a.Node < b.Node
}

// topK selects the k entries of column class of the row-major n×stride
// matrix data that rank first under outranks, in rank order. A size-k
// heap with its lowest-ranked entry at the root keeps the scan
// O(n log k); only the k survivors are sorted.
func topK(data []float64, stride, class, k int) []NodeBelief {
	n := len(data) / stride
	k = min(k, n)
	h := make([]NodeBelief, 0, k)
	for i := 0; i < n; i++ {
		nb := NodeBelief{Node: i, Belief: data[i*stride+class]}
		switch {
		case len(h) < k:
			h = append(h, nb)
			if len(h) == k {
				for j := k/2 - 1; j >= 0; j-- {
					siftDown(h, j)
				}
			}
		case outranks(nb, h[0]):
			h[0] = nb
			siftDown(h, 0)
		}
	}
	sort.Slice(h, func(i, j int) bool { return outranks(h[i], h[j]) })
	return h
}

// siftDown restores the heap below i: every parent is outranked by its
// children, so the root is the weakest entry kept.
func siftDown(h []NodeBelief, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && outranks(h[c], h[c+1]) {
			c++
		}
		if !outranks(h[i], h[c]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Degraded reports whether the front end is in read-only mode.
func (f *FrontEnd) Degraded() bool { return f.degraded.Load() }

// Draining reports whether admission is closed for shutdown.
func (f *FrontEnd) Draining() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.draining
}

// Drain stops admission (new requests fail with ErrDraining) and
// blocks until every queued and in-flight request has been answered,
// or ctx expires. Idempotent; Close after a successful Drain is a
// clean shutdown with nothing left to fail.
func (f *FrontEnd) Drain(ctx context.Context) error {
	f.mu.Lock()
	f.draining = true
	f.mu.Unlock()
	for {
		f.mu.Lock()
		idle := len(f.queue) == 0 && f.inFlight == 0
		f.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("serve: drain: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// Close shuts the dispatch workers down and fails every still-queued
// waiter with ErrClosed (typed, never silent). In-flight batches
// finish serving. The wrapped solver stays open — its owner closes
// it. Idempotent.
func (f *FrontEnd) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	orphans := f.queue
	f.queue = nil
	f.cond.Broadcast()
	f.mu.Unlock()

	for _, w := range orphans {
		if w.state.CompareAndSwap(wQueued, wTaken) {
			w.finish(nil, core.SolveInfo{}, fmt.Errorf("serve: %w", errs.ErrClosed))
		}
	}
	f.wg.Wait()
	return nil
}

// Stats snapshots the front end.
func (f *FrontEnd) Stats() Stats {
	f.mu.Lock()
	qlen, inflight, draining := len(f.queue), f.inFlight, f.draining
	f.mu.Unlock()
	return Stats{
		Admitted:         f.admitted.Load(),
		Completed:        f.completed.Load(),
		ShedOverload:     f.shedOverload.Load(),
		ShedBudget:       f.shedBudget.Load(),
		ShedDraining:     f.shedDraining.Load(),
		RejectedInvalid:  f.rejectedInvalid.Load(),
		Expired:          f.expired.Load(),
		Panics:           f.panics.Load(),
		RetriedSingleton: f.retriedSingleton.Load(),
		DegradedWrites:   f.degradedWrites.Load(),
		Degraded:         f.degraded.Load(),
		Draining:         draining,
		QueueLen:         qlen,
		InFlight:         inflight,
		EstBatch:         time.Duration(f.est.Value()),
		P50:              f.lat.Quantile(0.50),
		P99:              f.lat.Quantile(0.99),
		Solver:           f.s.Stats(),
	}
}
