package main

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/gbdt"
	"repro/internal/sketch"
	"repro/internal/stats"
)

// probeSweeps is how many sweeps over the base columns each kernel probe
// times; the probe reports the median sweep.
const probeSweeps = 3

// kernelProbes times direct calls into the hot shared kernels on the
// workload's own base columns: sketch.SortNonNaN, stats.CutIndexer.Find
// (over 255 quantile cuts per column, as the miner bins), and one
// gbdt.Train with the miner's configuration.
func kernelProbes(lv layerValues, f *frame.Frame) error {
	cols := columns(f)
	values := f.NumRows() * len(cols)

	var scratch sketch.SortScratch
	cuts := make([][]float64, len(cols))
	sorts := make([]float64, probeSweeps)
	for s := range sorts {
		start := time.Now()
		for j, c := range cols {
			sorted, _ := sketch.SortNonNaN(c, &scratch)
			if s == 0 {
				cuts[j] = quantileCuts(sorted, 255)
			}
		}
		sorts[s] = float64(time.Since(start).Nanoseconds()) / float64(values)
	}
	lv["sketch.sort_ns_per_value"] = median(sorts)

	var ix stats.CutIndexer
	finds := make([]float64, probeSweeps)
	sink := 0
	for s := range finds {
		start := time.Now()
		n := 0
		for j, c := range cols {
			ix.Reset(cuts[j])
			for _, v := range c {
				if !math.IsNaN(v) {
					sink += ix.Find(v)
					n++
				}
			}
		}
		finds[s] = float64(time.Since(start).Nanoseconds()) / float64(max(n, 1))
	}
	lv["stats.cutfind_ns_per_value"] = median(finds)
	probeSink = sink

	start := time.Now()
	if _, err := gbdt.Train(cols, f.Label, f.Names(), core.DefaultConfig().Miner); err != nil {
		return err
	}
	lv["gbdt.train_s"] = time.Since(start).Seconds()
	return nil
}

// quantileCuts picks up to k distinct cut points at evenly spaced ranks of
// a sorted column.
func quantileCuts(sorted []float64, k int) []float64 {
	var out []float64
	for i := 1; i <= k && len(sorted) > 0; i++ {
		v := sorted[i*(len(sorted)-1)/(k+1)]
		if len(out) == 0 || v > out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// probeSink keeps the probed lookups from being optimised away.
var probeSink int
