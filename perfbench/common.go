package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/beliefs"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/serve"
)

// pass is one measured pass of a workload.
type pass struct {
	seconds float64
	setups  int     // set-ups to time, the last serving the measured phase (restart sets up per cycle)
	t       *tracer // nil for the untraced run
	dir     string  // scratch directory for durable state
}

// fsys is the filesystem the durable workloads write through: the OS,
// decorated in the traced run.
func (p pass) fsys() durable.FS {
	if p.t == nil {
		return durable.OS
	}
	return tracedFS{FS: durable.OS, t: p.t}
}

// result is what one pass measured.
type result struct {
	e2e     map[string]float64 // the end-to-end metrics of BENCHMARK.json
	lines   []line             // per-workload metric names, printed for humans
	shed    float64            // requests the front end shed
	nnz     int                // served adjacency size, for the kernel byte model
	mainOps int                // operations go.alloc_mb is divided by
	rt      rtDelta
	tally
}

func newResult() *result {
	return &result{e2e: map[string]float64{}}
}

// tally counts attempted client calls and the ones that failed, were
// refused, or returned an answer a check rejected.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	problems          []string
}

func (t *tally) attempt() { t.attempted.Add(1) }

// fail records one failed call with its reason.
func (t *tally) fail(format string, args ...any) {
	t.failed.Add(1)
	t.mu.Lock()
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
	t.mu.Unlock()
}

// check counts one attempted call that failed if err is non-nil.
func (t *tally) check(what string, err error) bool {
	t.attempt()
	if err != nil {
		t.fail("%s: %v", what, err)
		return false
	}
	return true
}

// server is one serving stack: a prepared solver behind a front end.
type server struct {
	solver core.Solver
	front  *serve.FrontEnd
}

// newServer puts a front end with lsbpd's defaults (2 dispatches in
// flight, batch 2× the solver's hint, queue 64) over s, through the
// observing decorator in the traced run.
func newServer(s core.Solver, t *tracer) *server {
	var inner core.Solver = s
	if t != nil {
		inner = &tracedSolver{Solver: s, t: t}
	}
	return &server{solver: s, front: serve.New(inner, serve.Config{MaxInFlight: 2})}
}

// shed is the front end's shed count so far.
func shed(sv *server) float64 {
	st := sv.front.Stats()
	return float64(st.ShedOverload + st.ShedBudget + st.ShedDraining)
}

func (sv *server) close() error {
	sv.front.Close()
	return sv.solver.Close()
}

// setUp times ps.setups set-ups — Prepare through the first published
// fixpoint — closing each server before the next, and returns the last
// one with its fixpoint. opts returns the Prepare options of set-up i,
// which may carry state of its own (a fresh durable directory).
func setUp(ctx context.Context, p *core.Problem, ps pass, opts func(i int) ([]core.Option, error)) (*server, *beliefs.Residual, []float64, error) {
	var sv *server
	var fix *beliefs.Residual
	var times latencies
	for i := 0; i < ps.setups; i++ {
		if sv != nil {
			sv.close()
		}
		o, err := opts(i)
		if err != nil {
			return nil, nil, nil, err
		}
		start := time.Now()
		sr := ps.t.open("bench.setup", 0, 0)
		if sv, err = prepareServer(p, ps.t, sr, o...); err != nil {
			return nil, nil, nil, err
		}
		if fix, err = sv.publish(ctx, sr); err != nil {
			sv.close()
			return nil, nil, nil, err
		}
		sr.close()
		times.add(time.Since(start))
	}
	return sv, fix, times.values(), nil
}

// prepareServer runs Prepare inside a core.Prepare span that owns its
// durable I/O (the snapshot publish).
func prepareServer(p *core.Problem, t *tracer, parent *region, opts ...core.Option) (*server, error) {
	r := t.open("core.Prepare", parent.id(), 0)
	restore := t.ownIO(r)
	s, err := core.Prepare(p, core.MethodLinBP, opts...)
	restore()
	r.close()
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	return newServer(s, t), nil
}

// openServer runs OpenFS inside a core.OpenFS span that owns its
// durable I/O (map, verify, replay, checkpoint).
func openServer(fsys durable.FS, dir string, t *tracer, parent *region, opts ...core.Option) (*server, error) {
	r := t.open("core.OpenFS", parent.id(), 0)
	restore := t.ownIO(r)
	s, err := core.OpenFS(fsys, dir, opts...)
	restore()
	r.close()
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	return newServer(s, t), nil
}

// publish runs the empty Update that publishes the first fixpoint
// behind Beliefs and TopK; a fixpoint that did not converge within
// maxIter fails it (that is how the recorded εH is verified).
func (sv *server) publish(ctx context.Context, parent *region) (*beliefs.Residual, error) {
	res, err := sv.front.Update(withTag(ctx, parent), core.Update{})
	if err != nil {
		return nil, fmt.Errorf("first fixpoint: %w", err)
	}
	if !res.Converged {
		return nil, errors.New("first fixpoint did not converge")
	}
	return res.Beliefs, nil
}

// solve is one timed FrontEnd.Solve under a serve.Solve span.
func (sv *server) solve(ctx context.Context, t *tracer, parent *region, e *beliefs.Residual) (*beliefs.Residual, time.Duration, error) {
	r := t.open("serve.Solve", parent.id(), t.newReq())
	t.tagSolve(e, r)
	start := time.Now()
	dst, _, err := sv.front.Solve(ctx, e)
	d := time.Since(start)
	r.close()
	t.untagSolve(e)
	return dst, d, err
}

// topk is one timed FrontEnd.TopK under a serve.TopK span.
func (sv *server) topk(t *tracer, parent *region, class int) ([]serve.NodeBelief, time.Duration, error) {
	r := t.open("serve.TopK", parent.id(), t.newReq())
	start := time.Now()
	top, err := sv.front.TopK(class, topK)
	d := time.Since(start)
	r.close()
	return top, d, err
}

// update is one timed FrontEnd.Update under a serve.Update span.
func (sv *server) update(ctx context.Context, t *tracer, parent *region, u core.Update) (*core.Result, time.Duration, error) {
	r := t.open("serve.Update", parent.id(), t.newReq())
	start := time.Now()
	res, err := sv.front.Update(withTag(ctx, r), u)
	d := time.Since(start)
	r.close()
	return res, d, err
}

// sameTop reports whether a served TopK equals a brute-force scan.
func sameTop(got, want []serve.NodeBelief) error {
	if len(got) != len(want) {
		return fmt.Errorf("top-k returned %d entries, brute force %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("top-k entry %d is %+v, brute force %+v", i, got[i], want[i])
		}
	}
	return nil
}

// freshDir empties and creates a durable-state directory.
func freshDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}
