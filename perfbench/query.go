package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/beliefs"
	"repro/internal/core"
	"repro/internal/serve"
)

// Workload query: read-only what-if serving on the power-11 graph. Two
// closed-loop clients; each operation submits four concurrent
// FrontEnd.Solve calls with their own 5%-seed label sets, waits for
// all four, then reads TopK(class, 100) of the published fixpoint.
const (
	queryPower   = 11
	queryClients = 2
	queryFanout  = 4
	// queryPool is the label sets per client: two operations' worth, so
	// no two in-flight requests ever share a matrix.
	queryPool = 2 * queryFanout
	// querySamples is the solves per client kept for the reference check.
	querySamples = 2
)

type queryInputs struct {
	*problemBase
	base *beliefs.Residual   // the served problem's explicit beliefs
	pool []*beliefs.Residual // what-if label sets, queryPool per client
}

func newQueryInputs(seed uint64) *queryInputs {
	pb := newProblemBase(queryPower)
	return &queryInputs{
		problemBase: pb,
		base:        labelSets(pb.g.N(), 1, seed, 1)[0],
		pool:        labelSets(pb.g.N(), queryClients*queryPool, seed, 2),
	}
}

func runQuery(in *queryInputs, ps pass) (*result, error) {
	ctx := context.Background()
	r := newResult()
	r.nnz = in.nnz
	p := &core.Problem{Graph: in.g, Explicit: in.base, Ho: in.ho, EpsilonH: epsP11}
	opts := []core.Option{
		core.WithMaxIter(maxIter),
		core.WithWorkers(runtime.GOMAXPROCS(0)),
		core.WithSchedule(core.ScheduleAuto),
	}
	sv, fix, setups, err := setUp(ctx, p, ps, func(int) ([]core.Option, error) { return opts, nil })
	if err != nil {
		return nil, err
	}
	defer sv.close()
	heap := liveHeapMB()
	want := make([][]serve.NodeBelief, classes)
	for c := range want {
		want[c] = bruteTopK(fix, c, topK)
	}

	type sample struct{ e, got *beliefs.Residual }
	var (
		solves, topks latencies
		mu            sync.Mutex
		samples       []sample
		wg            sync.WaitGroup
	)
	rt0 := readRuntime()
	start := time.Now()
	deadline := start.Add(time.Duration(ps.seconds * float64(time.Second)))
	for c := 0; c < queryClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			kept := 0
			for op := 0; time.Now().Before(deadline); op++ {
				or := ps.t.open("bench.op", 0, 0)
				var fan sync.WaitGroup
				for j := 0; j < queryFanout; j++ {
					e := in.pool[c*queryPool+(op%2)*queryFanout+j]
					keep := j == 0 && op%4 == 1 && kept < querySamples
					if keep {
						kept++
					}
					fan.Add(1)
					go func() {
						defer fan.Done()
						got, d, err := sv.solve(ctx, ps.t, or, e)
						if !r.check("solve", err) {
							return
						}
						solves.add(d)
						if keep {
							mu.Lock()
							samples = append(samples, sample{e, got})
							mu.Unlock()
						}
					}()
				}
				fan.Wait()
				class := (op + c) % classes
				top, d, err := sv.topk(ps.t, or, class)
				or.close()
				if r.check("topk", err) {
					topks.add(d)
					if err := sameTop(top, want[class]); err != nil {
						r.fail("topk check: %v", err)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	r.rt = runtimeSince(rt0)
	r.shed = shed(sv)
	sv.close()

	// Sampled answers against a separately prepared reference: serial,
	// natural order, unbatched rounds.
	ref, err := core.Prepare(p, core.MethodLinBP, core.WithMaxIter(maxIter), core.WithReordering(core.ReorderNone))
	if err != nil {
		return nil, fmt.Errorf("reference prepare: %w", err)
	}
	defer ref.Close()
	dst := beliefs.New(in.g.N(), classes)
	for _, s := range samples {
		if _, err := ref.SolveInto(ctx, dst, s.e); err != nil {
			return nil, fmt.Errorf("reference solve: %w", err)
		}
		if d := maxAbsDiff(dst, s.got); d > tolBudget {
			r.fail("solve check: served answer is %g from the reference (budget %g)", d, tolBudget)
		}
	}
	if len(samples) == 0 {
		r.fail("solve check: no answer was sampled")
	}

	sv50 := quantile(solves.values(), 0.5)
	perS := float64(solves.count()) / elapsed
	r.mainOps = solves.count()
	r.e2e["setup_s"] = quantile(setups, 0.5) / 1e3
	r.e2e["heap_live_mb"] = heap
	r.e2e["solve_p50_ms"] = sv50
	r.e2e["topk_p50_ms"] = quantile(topks.values(), 0.5)
	r.e2e["main_p50_ms"] = sv50
	r.e2e["main_per_s"] = perS
	r.lines = append(r.lines,
		line{"setup_s", r.e2e["setup_s"], "s", fmt.Sprintf("n=%d", len(setups))},
		line{"heap_live_mb", heap, "MB", ""})
	r.lines = append(r.lines, latencyLines("solve", solves.values())...)
	r.lines = append(r.lines,
		line{"solve_per_s", perS, "1/s", fmt.Sprintf("%d solves in %.1f s", solves.count(), elapsed)},
		line{"topk_p50_ms", r.e2e["topk_p50_ms"], "ms", fmt.Sprintf("n=%d", topks.count())})
	return r, nil
}
