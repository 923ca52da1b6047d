package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of sorted values (0 when
// there are none).
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

// median returns the median of xs (0 when empty), leaving xs unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// runtimeProbe measures the process-wide runtime counters over one
// interval: allocations, bytes allocated, the GC's share of CPU time and
// the peak goroutine count (sampled every 5ms).
type runtimeProbe struct {
	ms0     runtime.MemStats
	cpu0    [2]float64
	done    chan struct{}
	stopped chan int
}

var cpuMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readCPU() [2]float64 {
	s := make([]metrics.Sample, len(cpuMetrics))
	for i, name := range cpuMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	var out [2]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

func startRuntimeProbe() *runtimeProbe {
	p := &runtimeProbe{done: make(chan struct{}), stopped: make(chan int)}
	runtime.ReadMemStats(&p.ms0)
	p.cpu0 = readCPU()
	go func() {
		peak := runtime.NumGoroutine()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				peak = max(peak, runtime.NumGoroutine())
			case <-p.done:
				p.stopped <- peak
				return
			}
		}
	}()
	return p
}

// runtimeStats is one probe's result.
type runtimeStats struct {
	ops           int64
	allocs, bytes uint64
	gcCPUFrac     float64
	goroutinesMax int
}

func (p *runtimeProbe) stop(ops int64) runtimeStats {
	close(p.done)
	peak := <-p.stopped
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu := readCPU()
	st := runtimeStats{ops: ops, allocs: ms.Mallocs - p.ms0.Mallocs, bytes: ms.TotalAlloc - p.ms0.TotalAlloc, goroutinesMax: peak}
	if d := cpu[1] - p.cpu0[1]; d > 0 {
		st.gcCPUFrac = (cpu[0] - p.cpu0[0]) / d
	}
	return st
}

// report sets the runtime.* metrics.
func (st runtimeStats) report(r *report, samples int) {
	ops := float64(max(st.ops, 1))
	r.set("runtime.allocs_per_op", float64(st.allocs)/ops, samples)
	r.set("runtime.bytes_per_op", float64(st.bytes)/ops, samples)
	r.set("runtime.gc_cpu_frac", st.gcCPUFrac, samples)
	r.set("runtime.goroutines_max", float64(st.goroutinesMax), samples)
}

func sortNs(xs []int64) { sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) }
