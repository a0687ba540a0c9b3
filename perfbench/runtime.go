package main

import (
	"runtime/metrics"
	"time"
)

// heapAllocBytes is the cumulative heap allocation of the process.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler records the live heap the runtime measures at the end of each
// GC cycle while the measured phase runs.
type heapSampler struct {
	stopc chan struct{}
	done  chan struct{}
	live  []float64 // one sample per GC cycle, in bytes
}

// heapSampleEvery is how often the sampler looks for a finished GC cycle.
const heapSampleEvery = time.Millisecond

func liveHeap() (cycles, live uint64) {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	last, _ := liveHeap()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-h.stopc:
				return
			case <-tick.C:
				if c, live := liveHeap(); c != last {
					last = c
					h.live = append(h.live, float64(live))
				}
			}
		}
	}()
	return h
}

// stop ends sampling and waits for the sampler to exit.
func (h *heapSampler) stop() {
	close(h.stopc)
	<-h.done
}

// peakMB is the 95th percentile of the per-cycle live heap. The single
// highest cycle depends on where in an operation the collector happened to
// finish and moved by a third between runs of the same seed; the 95th
// percentile is the peak the workload reaches again and again. A run too
// short for any GC cycle reports the current live heap.
func (h *heapSampler) peakMB() float64 {
	if len(h.live) == 0 {
		_, live := liveHeap()
		return float64(live) / 1e6
	}
	return percentile(h.live, 95) / 1e6
}

// gcWindow measures the share of the process's busy CPU time that the
// garbage collector took between start and stop. The runtime estimates these
// figures and refreshes them at each GC cycle.
type gcWindow struct {
	gc0, busy0 float64
	share      float64
}

func cpuSeconds() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

func startGCWindow() gcWindow {
	var w gcWindow
	w.gc0, w.busy0 = cpuSeconds()
	return w
}

func (w *gcWindow) stop() {
	gc, busy := cpuSeconds()
	if busy > w.busy0 {
		w.share = (gc - w.gc0) / (busy - w.busy0)
	}
}
