package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"repro/internal/beliefs"
	"repro/internal/core"
	"repro/internal/graph"
)

// Workload restart: cold start and recovery on the power-8 graph, one
// closed-loop client. Each cycle times Prepare(WithAutoEpsilonH,
// WithDurability) to the first answer, then runs restartRounds recovery
// rounds: apply restartUpdates small updates untimed (leaving a WAL
// tail), close, and time OpenFS to the first answer. OpenFS checkpoints
// after replaying, so every round recovers exactly one fresh tail; the
// rounds give recovery, a ~20 ms call against a ~2 s cold start, enough
// samples per run for a steady median. The first answer is the
// published fixpoint read through TopK.
const (
	restartPower   = 8
	restartRounds  = 4
	restartUpdates = 8
	restartAdd     = 4 // fresh edges per small update
	// restartMaxCycles bounds the pre-generated cycles; restartWhatIf
	// is the pool of what-if requests the rounds take in turn.
	restartMaxCycles = 64
	restartWhatIf    = 8
)

type restartInputs struct {
	*problemBase
	base   *beliefs.Residual
	adds   [][][]graph.Edge    // per round (cycle-major), per update
	whatIf []*beliefs.Residual // requests answered before the close and after recovery
}

func newRestartInputs(seed uint64) *restartInputs {
	pb := newProblemBase(restartPower)
	in := &restartInputs{
		problemBase: pb,
		base:        labelSets(pb.g.N(), 1, seed, 21)[0],
		whatIf:      labelSets(pb.g.N(), restartWhatIf, seed, 22),
	}
	rng := stream(seed, 23)
	for c := 0; c < restartMaxCycles; c++ {
		live := map[[2]int]bool{} // a cycle's rounds keep adding to one graph
		for round := 0; round < restartRounds; round++ {
			var tail [][]graph.Edge
			for u := 0; u < restartUpdates; u++ {
				tail = append(tail, freshEdges(rng, pb.g, live, restartAdd))
			}
			in.adds = append(in.adds, tail)
		}
	}
	return in
}

func runRestart(in *restartInputs, ps pass) (*result, error) {
	ctx := context.Background()
	r := newResult()
	r.nnz = in.nnz
	fsys := ps.fsys()
	dir := filepath.Join(ps.dir, "restart")
	if err := freshDir(dir); err != nil {
		return nil, err
	}
	p := &core.Problem{Graph: in.g, Explicit: in.base, Ho: in.ho, EpsilonH: 0.1}
	durability := core.WithDurabilityFS(fsys, dir, core.DurabilityPolicy{Sync: core.SyncAlways})

	var coldstarts, recovers, solves, topks latencies
	var heap float64
	rt0 := readRuntime()
	start := time.Now()
	deadline := start.Add(time.Duration(ps.seconds * float64(time.Second)))
	for c := 0; c < restartMaxCycles && time.Now().Before(deadline); c++ {
		class := c % classes

		// Cold start to the first answer.
		t0 := time.Now()
		cr := ps.t.open("bench.coldstart", 0, 0)
		sv, err := prepareServer(p, ps.t, cr, core.WithMaxIter(maxIter), core.WithAutoEpsilonH(), durability)
		if err != nil {
			return nil, err
		}
		fix, err := sv.publish(ctx, cr)
		if err != nil {
			sv.close()
			return nil, err
		}
		top, dTop, err := sv.topk(ps.t, cr, class)
		cr.close()
		d := time.Since(t0)
		if r.check("coldstart", err) {
			coldstarts.add(d)
			topks.add(dTop)
			if err := sameTop(top, bruteTopK(fix, class, topK)); err != nil {
				r.fail("coldstart topk check: %v", err)
			}
		}
		if c == 0 {
			heap = liveHeapMB() // the first cold start is the workload's set-up
		}
		r.attempt()
		if eps := sv.solver.Stats().EpsilonH; math.Abs(eps-epsP8)/epsP8 > epsRelTol {
			r.fail("auto-εH check: derived %.17g, recorded %.17g", eps, epsP8)
		}

		for round := 0; round < restartRounds; round++ {
			k := c*restartRounds + round
			// Small updates, untimed; they leave a WAL tail.
			var before *beliefs.Residual
			for _, add := range in.adds[k] {
				res, _, err := sv.update(ctx, ps.t, nil, core.Update{AddEdges: add})
				if !r.check("update", err) {
					sv.close()
					return nil, fmt.Errorf("restart update: %w", err)
				}
				before = res.Beliefs
			}
			e := in.whatIf[k%restartWhatIf]
			pre, dSolve, err := sv.solve(ctx, ps.t, nil, e)
			if r.check("solve", err) {
				solves.add(dSolve)
			}

			// Close, then recover to the first answer.
			r.shed += shed(sv)
			if err := sv.close(); err != nil {
				return nil, fmt.Errorf("close: %w", err)
			}
			t1 := time.Now()
			rr := ps.t.open("bench.recover", 0, 0)
			sv, err = openServer(fsys, dir, ps.t, rr, core.WithMaxIter(maxIter), durability)
			if err != nil {
				return nil, err
			}
			rfix, err := sv.publish(ctx, rr)
			if err != nil {
				sv.close()
				return nil, err
			}
			top, dTop, err = sv.topk(ps.t, rr, class)
			rr.close()
			d = time.Since(t1)
			if r.check("recover", err) {
				recovers.add(d)
				topks.add(dTop)
				if err := sameTop(top, bruteTopK(rfix, class, topK)); err != nil {
					r.fail("recover topk check: %v", err)
				}
			}
			r.attempt()
			if d := maxAbsDiff(rfix, before); d > tolBudget {
				r.fail("recovered fixpoint is %g from the one before the close (budget %g)", d, tolBudget)
			}
			post, dSolve, err := sv.solve(ctx, ps.t, nil, e)
			if r.check("solve", err) {
				solves.add(dSolve)
				if pre != nil {
					if d := maxAbsDiff(post, pre); d > recoverTol {
						r.fail("recovered what-if answer is %g from the one before the close (bound %g)", d, recoverTol)
					}
				}
			}
		}
		r.shed += shed(sv)
		if err := sv.close(); err != nil {
			return nil, fmt.Errorf("close: %w", err)
		}
	}
	elapsed := time.Since(start).Seconds()
	r.rt = runtimeSince(rt0)

	if ps.t != nil {
		// The spectral layer alone: the εH search Prepare runs inside.
		sr := ps.t.open("spectral.AutoEpsilonH", 0, 0)
		eps, err := core.AutoEpsilonH(in.g, in.ho, core.MethodLinBP)
		sr.close()
		if r.check("autoepsilon", err) && math.Abs(eps-epsP8)/epsP8 > epsRelTol {
			r.fail("AutoEpsilonH check: %.17g, recorded %.17g", eps, epsP8)
		}
	}

	rec50 := quantile(recovers.values(), 0.5)
	r.mainOps = recovers.count()
	r.e2e["setup_s"] = quantile(coldstarts.values(), 0.5) / 1e3
	r.e2e["heap_live_mb"] = heap
	r.e2e["solve_p50_ms"] = quantile(solves.values(), 0.5)
	r.e2e["topk_p50_ms"] = quantile(topks.values(), 0.5)
	r.e2e["main_p50_ms"] = rec50
	r.e2e["main_per_s"] = float64(recovers.count()) / elapsed
	r.lines = append(r.lines,
		line{"setup_s", r.e2e["setup_s"], "s", fmt.Sprintf("n=%d, the cold starts", coldstarts.count())},
		line{"heap_live_mb", heap, "MB", ""},
		line{"coldstart_p50_ms", quantile(coldstarts.values(), 0.5), "ms", fmt.Sprintf("n=%d", coldstarts.count())},
		line{"recover_p50_ms", rec50, "ms", fmt.Sprintf("n=%d", recovers.count())},
		line{"recover_per_s", r.e2e["main_per_s"], "1/s", fmt.Sprintf("%d recoveries in %d cycles in %.1f s", recovers.count(), coldstarts.count(), elapsed)},
		line{"solve_p50_ms", r.e2e["solve_p50_ms"], "ms", fmt.Sprintf("n=%d what-if solves around the restart", solves.count())},
		line{"topk_p50_ms", r.e2e["topk_p50_ms"], "ms", fmt.Sprintf("n=%d first answers", topks.count())})
	return r, nil
}
