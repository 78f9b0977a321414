package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// latencies collects one operation's latencies in milliseconds; safe
// for concurrent use.
type latencies struct {
	mu sync.Mutex
	ms []float64
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.ms = append(l.ms, float64(d)/float64(time.Millisecond))
	l.mu.Unlock()
}

func (l *latencies) values() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.ms...)
}

func (l *latencies) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ms)
}

// quantile is the linearly interpolated q-quantile of v (NaN when v is
// empty).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailSupported reports whether at least ten of n samples lie beyond
// the q-quantile — the rule for reporting a tail at all.
func tailSupported(n int, q float64) bool {
	return float64(n)*(1-q) >= 10
}

// line is one human-readable metric row: the per-workload names (with
// tails where the sample count supports them) printed before the
// machine-readable result.
type line struct {
	name  string
	value float64
	unit  string
	note  string
}

func (l line) String() string {
	if math.IsNaN(l.value) {
		return fmt.Sprintf("%-22s %12s %-6s %s", l.name, "-", l.unit, l.note)
	}
	return fmt.Sprintf("%-22s %12.4f %-6s %s", l.name, l.value, l.unit, l.note)
}

// latencyLines prints the median and, when at least ten samples lie
// beyond it, the p95 of one operation.
func latencyLines(name string, v []float64) []line {
	n := len(v)
	note := fmt.Sprintf("n=%d", n)
	out := []line{{name + "_p50_ms", quantile(v, 0.5), "ms", note}}
	if tailSupported(n, 0.95) {
		out = append(out, line{name + "_p95_ms", quantile(v, 0.95), "ms", note})
	} else {
		out = append(out, line{name + "_p95_ms", math.NaN(), "ms", note + ", fewer than 10 samples beyond p95"})
	}
	return out
}

// rtSample is a snapshot of the runtime/metrics counters the per-layer
// runtime rows difference.
type rtSample struct {
	allocBytes float64
	gcCycles   float64
	gcPauseCPU float64 // pause CPU-seconds, GOMAXPROCS × wall pause time
	gcCPU      float64
	totalCPU   float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/pause:cpu-seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		v[i] = metricValue(s[i].Value)
	}
	return rtSample{v[0], v[1], v[2], v[3], v[4]}
}

func metricValue(v metrics.Value) float64 {
	switch v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	}
	return math.NaN()
}

// rtDelta is the runtime cost of one measured phase.
type rtDelta struct {
	allocMB   float64
	gcCycles  float64
	gcPauseMS float64
	gcCPUFrac float64
}

func runtimeSince(a rtSample) rtDelta {
	b := readRuntime()
	d := rtDelta{
		allocMB:   (b.allocBytes - a.allocBytes) / 1e6,
		gcCycles:  b.gcCycles - a.gcCycles,
		gcPauseMS: (b.gcPauseCPU - a.gcPauseCPU) / float64(runtime.GOMAXPROCS(0)) * 1e3,
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.gcCPUFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	return d
}

// liveHeapMB forces a collection and returns the live heap it found.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return metricValue(s[0].Value) / 1e6
}

// streamBytes sizes the host-bandwidth probe's array: 448 MiB, over
// four times the 105 MB last-level cache of the reference host, so
// every pass streams from memory.
const streamBytes = 448 << 20

// streamGBps is a STREAM-style read probe: GOMAXPROCS goroutines sum
// disjoint slices of one large array, best of three passes. It is the
// roofline denominator for kernel.model_gbps, not a program metric.
func streamGBps() float64 {
	a := make([]float64, streamBytes/8)
	for i := range a {
		a[i] = float64(i & 7)
	}
	workers := runtime.GOMAXPROCS(0)
	sums := make([]float64, workers)
	best := 0.0
	for pass := 0; pass < 3; pass++ {
		var wg sync.WaitGroup
		start := time.Now()
		chunk := (len(a) + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := min(lo+chunk, len(a))
			wg.Add(1)
			go func(w int, part []float64) {
				defer wg.Done()
				var s0, s1, s2, s3 float64
				for i := 0; i+3 < len(part); i += 4 {
					s0 += part[i]
					s1 += part[i+1]
					s2 += part[i+2]
					s3 += part[i+3]
				}
				sums[w] += s0 + s1 + s2 + s3
			}(w, a[lo:hi])
		}
		wg.Wait()
		if gbps := float64(len(a)*8) / float64(time.Since(start).Nanoseconds()); gbps > best {
			best = gbps
		}
	}
	return best
}
