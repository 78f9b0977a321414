package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/beliefs"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/serve"
)

// Workload ingest: durable updates on the power-11 graph (serial
// workers, ScheduleAuto, fsync always) with one closed-loop writer and
// one closed-loop reader.
const (
	ingestPower = 11
	// Each topology batch adds ingestAdd fresh edges and removes the
	// edges added ingestLag topology batches earlier; every fourth
	// update is label-only and relabels ingestRelabel nodes.
	ingestAdd     = 16
	ingestLag     = 3
	ingestRelabel = 8
	// ingestMaxUpdates bounds the pre-generated stream; the writer stops
	// early if it ever runs out.
	ingestMaxUpdates = 4000
	ingestReadPool   = 8
	ingestReadNodes  = 32
	// ingestCompaction is the overlay share that triggers a compaction.
	// A topology batch adds 32 overlay cells, plus 32 tombstones while
	// the edges it removes still sit in the base, so the overlay
	// crosses 300 cells on the seventh topology batch after a
	// compaction: about one update in ten compacts.
	ingestCompaction = 300.0 / (1 << 22)
)

type ingestInputs struct {
	*problemBase
	base     *beliefs.Residual
	adds     [][]graph.Edge // per topology batch
	relabels []relabel      // per label-only batch
	reads    []*beliefs.Residual
	nodes    [][]int // Beliefs reads per reader operation
	classes  []int
}

// isRelabel reports whether update i of the stream is label-only.
func isRelabel(i int) bool { return i%4 == 3 }

func newIngestInputs(seed uint64) *ingestInputs {
	pb := newProblemBase(ingestPower)
	n := pb.g.N()
	in := &ingestInputs{
		problemBase: pb,
		base:        labelSets(n, 1, seed, 11)[0],
		reads:       labelSets(n, ingestReadPool, seed, 12),
	}
	edges, labels, reader := stream(seed, 13), stream(seed, 14), stream(seed, 15)
	live := map[[2]int]bool{}
	for i := 0; i < ingestMaxUpdates; i++ {
		if isRelabel(i) {
			in.relabels = append(in.relabels, newRelabel(labels, n, ingestRelabel))
			continue
		}
		in.adds = append(in.adds, freshEdges(edges, pb.g, live, ingestAdd))
	}
	for i := 0; i < ingestMaxUpdates; i++ {
		ns := make([]int, ingestReadNodes)
		for j := range ns {
			ns[j] = reader.Intn(n)
		}
		in.nodes = append(in.nodes, ns)
		in.classes = append(in.classes, reader.Intn(classes))
	}
	return in
}

// update materializes stream entry i. Label-only batches write their
// rows into scratch, which the caller clears after the call (the
// solver copies the rows it installs).
func (in *ingestInputs) update(i int, scratch *beliefs.Residual) core.Update {
	if isRelabel(i) {
		rl := in.relabels[i/4]
		for j, v := range rl.nodes {
			scratch.Set(v, rl.rows[j])
		}
		return core.Update{SetExplicit: scratch}
	}
	b := i - i/4 // topology batch index
	u := core.Update{AddEdges: in.adds[b]}
	if b >= ingestLag {
		u.RemoveEdges = in.adds[b-ingestLag]
	}
	return u
}

// finalProblem replays the first applied updates onto copies of the
// base graph and labels: a batch's fresh edges survive unless the batch
// ingestLag topology batches later was applied, and relabels apply in
// order.
func (in *ingestInputs) finalProblem(applied int) *core.Problem {
	g := in.g.Clone()
	exp := in.base.Clone()
	topo := 0
	for i := 0; i < applied; i++ {
		if !isRelabel(i) {
			topo++
			continue
		}
		rl := in.relabels[i/4]
		for j, v := range rl.nodes {
			exp.Set(v, rl.rows[j])
		}
	}
	for b := max(0, topo-ingestLag); b < topo; b++ {
		for _, e := range in.adds[b] {
			g.AddEdge(e.S, e.T, e.W)
		}
	}
	return &core.Problem{Graph: g, Explicit: exp, Ho: in.ho, EpsilonH: epsP11}
}

// fixRing keeps the fixpoints the writer published, by publish index,
// for as long as a pending reader check may need them.
type fixRing struct {
	mu   sync.Mutex
	fix  map[int]*beliefs.Residual
	n    int
	pins map[int]int // lowest index a pending check needs → pending checks
	done bool
}

func newFixRing() *fixRing {
	return &fixRing{fix: map[int]*beliefs.Residual{}, pins: map[int]int{}}
}

func (r *fixRing) push(b *beliefs.Residual) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fix[r.n] = b
	r.n++
	floor := r.n - 1
	for p := range r.pins {
		floor = min(floor, p)
	}
	for i := range r.fix {
		if i < floor {
			delete(r.fix, i)
		}
	}
}

// pin returns the publish count now and keeps the fixpoint the front
// end may be serving (index count-1) until unpin.
func (r *fixRing) pin() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pins[r.n-1]++
	return r.n
}

func (r *fixRing) unpin(c0 int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pins[c0-1]--; r.pins[c0-1] == 0 {
		delete(r.pins, c0-1)
	}
}

func (r *fixRing) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

func (r *fixRing) finish() {
	r.mu.Lock()
	r.done = true
	r.mu.Unlock()
}

// candidates returns the fixpoints a read that ran between publish
// counts c0 and c1 may have seen — index c0-1 through c1, since the
// front end publishes a fixpoint just before the writer pushes it —
// or ok=false while the writer may still push index c1.
func (r *fixRing) candidates(c0, c1 int) (out []*beliefs.Residual, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n <= c1 && !r.done {
		return nil, false
	}
	for i := c0 - 1; i <= c1 && i < r.n; i++ {
		if b := r.fix[i]; b != nil {
			out = append(out, b)
		}
	}
	return out, true
}

func (r *fixRing) latest() *beliefs.Residual {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fix[r.n-1]
}

// readCheck is one reader operation's TopK and Beliefs answers awaiting
// the fixpoints they may have been served from.
type readCheck struct {
	c0, c1 int
	class  int
	top    []serve.NodeBelief
	nodes  []int
	rows   [][]float64
}

// resolve checks rc against its candidate fixpoints; false means not
// yet decidable.
func (rc *readCheck) resolve(ring *fixRing, r *result) bool {
	cands, ok := ring.candidates(rc.c0, rc.c1)
	if !ok {
		return false
	}
	if rc.top != nil { // nil when the read failed and was counted already
		var err error
		for _, b := range cands {
			if err = sameTop(rc.top, bruteTopK(b, rc.class, topK)); err == nil {
				break
			}
		}
		if err != nil {
			r.fail("topk check against %d candidate fixpoints: %v", len(cands), err)
		}
	}
	for j, v := range rc.nodes {
		if rc.rows[j] == nil {
			continue // the read failed and was counted already
		}
		found := false
		for _, b := range cands {
			if equalRow(b.Row(v), rc.rows[j]) {
				found = true
				break
			}
		}
		if !found {
			r.fail("beliefs check: node %d matches none of %d candidate fixpoints", v, len(cands))
		}
	}
	ring.unpin(rc.c0)
	return true
}

func equalRow(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func runIngest(in *ingestInputs, ps pass) (*result, error) {
	ctx := context.Background()
	r := newResult()
	r.nnz = in.nnz
	p := &core.Problem{Graph: in.g, Explicit: in.base, Ho: in.ho, EpsilonH: epsP11}
	fsys := ps.fsys()

	sv, fix, setups, err := setUp(ctx, p, ps, func(i int) ([]core.Option, error) {
		dir := filepath.Join(ps.dir, fmt.Sprintf("ingest-%d", i))
		if err := freshDir(dir); err != nil {
			return nil, err
		}
		return []core.Option{
			core.WithMaxIter(maxIter),
			core.WithSchedule(core.ScheduleAuto),
			core.WithUpdatePolicy(core.UpdatePolicy{CompactionRatio: ingestCompaction}),
			core.WithDurabilityFS(fsys, dir, core.DurabilityPolicy{Sync: core.SyncAlways}),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	defer sv.close()
	heap := liveHeapMB()
	ring := newFixRing()
	ring.push(fix)
	rebuilds0 := sv.solver.Stats().Rebuilds

	var (
		updates, solves, topks latencies
		applied                int
		wg                     sync.WaitGroup
	)
	rt0 := readRuntime()
	start := time.Now()
	deadline := start.Add(time.Duration(ps.seconds * float64(time.Second)))
	wg.Add(2)
	go func() { // writer
		defer wg.Done()
		defer ring.finish()
		scratch := beliefs.New(in.g.N(), classes)
		zero := make([]float64, classes)
		for i := 0; i < ingestMaxUpdates && time.Now().Before(deadline); i++ {
			u := in.update(i, scratch)
			res, d, err := sv.update(ctx, ps.t, nil, u)
			if u.SetExplicit != nil {
				for _, v := range in.relabels[i/4].nodes {
					scratch.Set(v, zero)
				}
			}
			applied++ // a failed update may still have committed; the final check decides
			if !r.check("update", err) {
				continue
			}
			updates.add(d)
			ring.push(res.Beliefs)
		}
	}()
	go func() { // reader
		defer wg.Done()
		var pending []*readCheck
		for op := 0; op < ingestMaxUpdates && time.Now().Before(deadline); op++ {
			_, d, err := sv.solve(ctx, ps.t, nil, in.reads[op%ingestReadPool])
			if r.check("solve", err) {
				solves.add(d)
			}
			rc := &readCheck{c0: ring.pin(), class: in.classes[op], nodes: in.nodes[op]}
			top, d, err := sv.topk(ps.t, nil, rc.class)
			if r.check("topk", err) {
				topks.add(d)
			}
			rc.top = top
			rc.rows = make([][]float64, len(rc.nodes))
			for j, v := range rc.nodes {
				row, err := sv.front.Beliefs(v)
				if r.check("beliefs", err) {
					rc.rows[j] = row
				}
			}
			rc.c1 = ring.count()
			pending = append(pending, rc)
			kept := pending[:0]
			for _, pc := range pending {
				if !pc.resolve(ring, r) {
					kept = append(kept, pc)
				}
			}
			pending = kept
		}
		for _, pc := range pending {
			for !pc.resolve(ring, r) {
				time.Sleep(time.Millisecond) // the writer is finishing its last update
			}
		}
	}()
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	r.rt = runtimeSince(rt0)
	rebuilds := sv.solver.Stats().Rebuilds - rebuilds0
	r.shed = shed(sv)
	last := ring.latest()
	sv.close()

	// The final published fixpoint against a fresh solve of the final
	// graph and labels.
	ref, err := core.Prepare(in.finalProblem(applied), core.MethodLinBP, core.WithMaxIter(maxIter))
	if err != nil {
		return nil, fmt.Errorf("reference prepare: %w", err)
	}
	defer ref.Close()
	res, err := ref.Update(ctx, core.Update{})
	if err != nil {
		return nil, fmt.Errorf("reference solve: %w", err)
	}
	r.attempt()
	if d := maxAbsDiff(res.Beliefs, last); d > tolBudget {
		r.fail("final fixpoint check: %g from a fresh solve of the final problem (budget %g)", d, tolBudget)
	}

	up50 := quantile(updates.values(), 0.5)
	r.mainOps = updates.count()
	r.e2e["setup_s"] = quantile(setups, 0.5) / 1e3
	r.e2e["heap_live_mb"] = heap
	r.e2e["solve_p50_ms"] = quantile(solves.values(), 0.5)
	r.e2e["topk_p50_ms"] = quantile(topks.values(), 0.5)
	r.e2e["main_p50_ms"] = up50
	r.e2e["main_per_s"] = float64(updates.count()) / elapsed
	r.lines = append(r.lines,
		line{"setup_s", r.e2e["setup_s"], "s", fmt.Sprintf("n=%d", len(setups))},
		line{"heap_live_mb", heap, "MB", ""})
	r.lines = append(r.lines, latencyLines("update", updates.values())...)
	r.lines = append(r.lines,
		line{"update_per_s", r.e2e["main_per_s"], "1/s", fmt.Sprintf("%d updates (%d compacted) in %.1f s", updates.count(), rebuilds, elapsed)})
	r.lines = append(r.lines, latencyLines("solve", solves.values())...)
	r.lines = append(r.lines, line{"topk_p50_ms", r.e2e["topk_p50_ms"], "ms", fmt.Sprintf("n=%d", topks.count())})
	return r, nil
}
