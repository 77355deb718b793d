package main

import (
	"runtime"
	"sync"
	"time"
)

// The host probe measures how fast the shared machine runs at the moment:
// a fixed loop of dependent loads over a random 8-regular table the size of
// a small graph's adjacency, like the walk step loop, and independent of
// the repository's code. A run samples it between its units of work, on
// every worker at once as the workloads load every core. On the shared VM
// this benchmark targets the same code runs up to 3x slower in a busy hour
// than in a quiet one, so the metrics that time work on the cores are
// reported at the reference host speed: divided (times) or multiplied
// (rates) by the run's host factor, probe time over probeRefNs.
const (
	probeVertices = 4096
	probeSteps    = 1 << 20
	// probeRefNs is the reference host's probe time per step: about what
	// a 2-vCPU 2.0 GHz Xeon VM reads in a quiet hour.
	probeRefNs = 5.0
)

var probeTable = func() []int32 {
	t := make([]int32, probeVertices*8)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range t {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t[i] = int32(x % probeVertices)
	}
	return t
}()

// probeSink keeps the probe loop's result alive.
var probeSink int32

// probeOnce runs the loop once and returns its time per step in ns.
func probeOnce() float64 {
	x, v := uint64(0x2545f4914f6cdd1d), int32(0)
	t0 := time.Now()
	for s := 0; s < probeSteps; s++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v = probeTable[int(v)*8+int(x&7)]
	}
	d := time.Since(t0)
	probeSink += v
	return float64(d) / probeSteps
}

// scaling names a workload's end-to-end metrics that time work on the
// cores, by how they follow the host.
type scaling struct {
	// stretch metrics add up long stretches of work (sweeps, batches,
	// whole windows, set-up), the host's stalls included; they are scaled
	// by the probe's mean.
	stretch []string
	// request metrics are medians over sub-millisecond requests, most of
	// which fall between the host's stalls; they are scaled by the
	// probe's median.
	request []string
}

// hostClock collects probe samples over a run.
type hostClock struct {
	workers int
	mu      sync.Mutex
	ns      []float64
}

// sample runs the probe on every worker at once, keeps each worker's time
// per step and returns their mean.
func (h *hostClock) sample() float64 {
	// A collection running beside the loop would slow it; finish one first.
	runtime.GC()
	xs := make([]float64, h.workers)
	var wg sync.WaitGroup
	for w := range xs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			xs[w] = probeOnce()
		}(w)
	}
	wg.Wait()
	h.mu.Lock()
	h.ns = append(h.ns, xs...)
	h.mu.Unlock()
	return mean(xs)
}

// stats returns the median and mean probe time per step and the sample
// count since the last reset.
func (h *hostClock) stats() (median, avg float64, n int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return quantile(h.ns, 0.5), mean(h.ns), len(h.ns)
}

// reset drops the samples so far, so the next phase has its own factors.
func (h *hostClock) reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ns = nil
}
