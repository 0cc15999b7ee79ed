package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// metric is one named, unit-bearing number a run reports. n is the sample
// count behind it (0 when it is a plain count or ratio).
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// pctl returns <name>_p50<suffix> and <name>_p99<suffix> over xs.
func pctl(name, suffix, unit string, xs []float64) []metric {
	return []metric{
		{name + "_p50" + suffix, quantile(xs, 0.50), unit, len(xs)},
		{name + "_p99" + suffix, quantile(xs, 0.99), unit, len(xs)},
	}
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// hostSnap is a reading of the process-wide counters a window is charged
// with: heap allocations (exact: ReadMemStats flushes every P's cache) and
// CPU time.
type hostSnap struct {
	mallocs uint64
	cpu     time.Duration
}

func readHost() hostSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostSnap{mallocs: ms.Mallocs, cpu: processCPU()}
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap forces a collection and returns the in-use heap bytes left.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// monitor samples the peak in-use heap of a load window (objects plus free
// space in in-use spans, MemStats.HeapInuse) every 50 ms, without stopping
// the world.
type monitor struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startMonitor() *monitor {
	m := &monitor{stop: make(chan struct{})}
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	heap := func() {
		metrics.Read(samples)
		if v := samples[0].Value.Uint64() + samples[1].Value.Uint64(); v > m.peak {
			m.peak = v
		}
	}
	heap()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				heap()
				return
			case <-tick.C:
				heap()
			}
		}
	}()
	return m
}

// finish stops the monitor; it returns the peak heap in MB.
func (m *monitor) finish() float64 {
	close(m.stop)
	m.wg.Wait()
	return float64(m.peak) / (1 << 20)
}

// splitmix mixes a seed, a stream tag and an index into a non-negative
// pseudo-random value, so every generated input is a pure function of the
// run's seed.
func splitmix(seed int64, stream, i uint64) uint64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15 + (i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z ^ (z >> 31)) >> 1
}
