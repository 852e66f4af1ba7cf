package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// Runtime counters read through runtime/metrics.
const (
	mHeapLive   = "/gc/heap/live:bytes"
	mAllocBytes = "/gc/heap/allocs:bytes"
	mAllocObjs  = "/gc/heap/allocs:objects"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
)

// counters is one reading of the cumulative runtime counters plus process
// CPU time.
type counters struct {
	at         time.Time
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint64
	gcCPU      float64
	procCPU    float64
}

func readCounters() counters {
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mAllocObjs}, {Name: mGCCycles}, {Name: mGCCPU}}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	return counters{
		at:         time.Now(),
		allocBytes: s[0].Value.Uint64(),
		mallocs:    s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		procCPU:    cpu,
	}
}

// delta is what happened between two readings.
type delta struct {
	wall       float64 // s
	allocBytes float64
	mallocs    float64
	gcCycles   float64
	gcCPU      float64 // s
	cpu        float64 // process CPU s
	cpuUtil    float64 // process CPU ÷ (wall × GOMAXPROCS)
}

func (a counters) to(b counters) delta {
	wall := b.at.Sub(a.at).Seconds()
	d := delta{
		wall:       wall,
		allocBytes: float64(b.allocBytes - a.allocBytes),
		mallocs:    float64(b.mallocs - a.mallocs),
		gcCycles:   float64(b.gcCycles - a.gcCycles),
		gcCPU:      b.gcCPU - a.gcCPU,
		cpu:        b.procCPU - a.procCPU,
	}
	if wall > 0 {
		d.cpuUtil = (b.procCPU - a.procCPU) / (wall * float64(runtime.GOMAXPROCS(0)))
	}
	return d
}

// peakSampler records the highest /gc/heap/live:bytes value it sees. The
// value changes only when a GC cycle ends, so a millisecond period misses
// no cycle the fits run.
type peakSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

func startPeakSampler() *peakSampler {
	p := &peakSampler{stop: make(chan struct{})}
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		s := []metrics.Sample{{Name: mHeapLive}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > p.peak {
				p.peak = v
			}
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// Stop ends sampling and returns the peak in MB.
func (p *peakSampler) Stop() float64 {
	close(p.stop)
	p.done.Wait()
	s := []metrics.Sample{{Name: mHeapLive}}
	metrics.Read(s)
	return float64(max(p.peak, s[0].Value.Uint64())) / (1 << 20)
}
