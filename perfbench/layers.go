package main

import (
	"sort"
)

// layerNames lists every per-layer metric in output order with its
// unit. BENCHMARK.json's per_layer section mirrors it.
var layerNames = []struct{ name, unit string }{
	{"serve.wait_ms", "ms"},
	{"serve.batch_size", "count"},
	{"serve.shed", "count"},
	{"core.solve_ms", "ms"},
	{"core.iterations", "count"},
	{"core.update_ms", "ms"},
	{"core.rows_relaxed", "count"},
	{"core.compaction_ms", "ms"},
	{"core.rebuilds", "count"},
	{"core.prepare_ms", "ms"},
	{"core.open_ms", "ms"},
	{"kernel.round_ms", "ms"},
	{"kernel.model_gbps", "GB/s"},
	{"host.stream_gbps", "GB/s"},
	{"spectral.eps_ms", "ms"},
	{"durable.wal_bytes", "bytes"},
	{"durable.syncs", "count"},
	{"durable.sync_ms", "ms"},
	{"durable.checkpoint_bytes", "bytes"},
	{"durable.map_bytes", "bytes"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.gc_cpu_frac", "ratio"},
	{"trace.overhead_main_p50_ms", "ms"},
	{"trace.overhead_solve_p50_ms", "ms"},
	{"trace.overhead_topk_p50_ms", "ms"},
}

const nsPerMS = 1e6

// selfTimes returns each span's duration minus the part of its
// interval that its child spans cover.
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, lo, hi int64
		open := false
		for _, c := range kids {
			a, b := max(c.Start, s.Start), min(c.End, s.End)
			if b <= a {
				continue
			}
			if open && a <= hi {
				hi = max(hi, b)
				continue
			}
			if open {
				covered += hi - lo
			}
			lo, hi, open = a, b, true
		}
		if open {
			covered += hi - lo
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// mean is sum/n, 0 for n == 0 (an idle layer reads zero).
func mean(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// layerMetrics attributes the traced pass's spans to layers. nnz is the
// served adjacency's stored-entry count for the kernel byte model;
// client updates are the core.Update spans under a client's
// serve.Update (set-up and first-answer publishes are excluded).
func layerMetrics(spans []span, nnz int) map[string]float64 {
	self := selfTimes(spans)
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	parentName := func(s span) string { return byID[s.Parent].Name }

	out := map[string]float64{}
	var (
		waitSum, solveSum, iterSum float64
		solveReqs, waitN           int
		dispatch                   = map[int64]span{}
		updSelf, compSelf, rows    float64
		updN, compN, clientUpdates int
		prepSum, openSum, epsSum   float64
		prepN, openN, epsN         int
		walBytes, ckptBytes        float64
		syncs                      int
		syncNS, mapBytes           float64
	)
	clientUpdate := map[int64]bool{}
	rebuilt := map[int64]bool{}
	for _, s := range spans {
		switch s.Name {
		case "serve.Solve":
			waitSum += float64(self[s.ID])
			waitN++
		case "core.SolveBatch", "core.SolveInto":
			solveSum += float64(s.dur())
			iterSum += float64(s.Iters)
			solveReqs++
			dispatch[s.Dispatch] = s
		case "core.Update":
			if parentName(s) != "serve.Update" {
				continue
			}
			clientUpdate[s.ID] = true
			clientUpdates++
			rows += float64(s.Rows)
			if s.Rebuilt {
				rebuilt[s.ID] = true
				compSelf += float64(self[s.ID])
				compN++
			} else {
				updSelf += float64(self[s.ID])
				updN++
			}
		case "core.Prepare":
			prepSum += float64(self[s.ID])
			prepN++
		case "core.OpenFS":
			openSum += float64(self[s.ID])
			openN++
		case "spectral.AutoEpsilonH":
			epsSum += float64(s.dur())
			epsN++
		}
	}
	for _, s := range spans {
		switch {
		case s.Name == "durable.Write" && clientUpdate[s.Parent]:
			if s.File == "wal" {
				walBytes += float64(s.Bytes)
			} else if rebuilt[s.Parent] {
				ckptBytes += float64(s.Bytes)
			}
		case (s.Name == "durable.Sync" || s.Name == "durable.SyncDir") && clientUpdate[s.Parent]:
			syncs++
			syncNS += float64(s.dur())
		case s.Name == "durable.Mmap" && parentName(s) == "core.OpenFS":
			mapBytes += float64(s.Bytes)
		}
	}
	var batchSum, dispNS, dispIters, modelBytes float64
	for _, d := range dispatch {
		batchSum += float64(d.Batch)
		dispNS += float64(d.dur())
		dispIters += float64(d.Iters)
		// Computed bytes per round: each stored entry streams a 4 B
		// column index and an 8 B value once, and gathers k 8 B belief
		// entries for every request fused into the call.
		modelBytes += float64(d.Iters) * float64(nnz) * float64(12+d.Batch*classes*8)
	}

	out["serve.wait_ms"] = mean(waitSum, waitN) / nsPerMS
	out["serve.batch_size"] = mean(batchSum, len(dispatch))
	out["core.solve_ms"] = mean(solveSum, solveReqs) / nsPerMS
	out["core.iterations"] = mean(iterSum, solveReqs)
	out["core.update_ms"] = mean(updSelf, updN) / nsPerMS
	out["core.rows_relaxed"] = mean(rows, clientUpdates)
	out["core.compaction_ms"] = mean(compSelf, compN) / nsPerMS
	out["core.rebuilds"] = float64(compN)
	out["core.prepare_ms"] = mean(prepSum, prepN) / nsPerMS
	out["core.open_ms"] = mean(openSum, openN) / nsPerMS
	if dispIters > 0 {
		out["kernel.round_ms"] = dispNS / dispIters / nsPerMS
		out["kernel.model_gbps"] = modelBytes / dispNS
	}
	out["spectral.eps_ms"] = mean(epsSum, epsN) / nsPerMS
	out["durable.wal_bytes"] = mean(walBytes, clientUpdates)
	out["durable.syncs"] = mean(float64(syncs), clientUpdates)
	out["durable.sync_ms"] = mean(syncNS, clientUpdates) / nsPerMS
	out["durable.checkpoint_bytes"] = mean(ckptBytes, compN)
	out["durable.map_bytes"] = mean(mapBytes, openN)
	return out
}
