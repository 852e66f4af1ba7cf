package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro"
)

// runFit runs one fit workload: set-up (repeated, median reported), then
// either the measured region of back-to-back untraced fits, or the traced
// variant.
func runFit(engine string, cfg runConfig) (*result, error) {
	var writes []float64
	env, setupS, err := repeatSetup(func() (*fitEnv, error) {
		e, err := setupFit(engine, cfg.seed, cfg.outDir, cfg.nproc)
		if err == nil {
			writes = append(writes, e.writeS)
		}
		return e, err
	})
	if err != nil {
		return nil, err
	}
	defer env.close()
	res := &result{}
	if cfg.trace {
		return res, traceFit(env, cfg, res, median(writes))
	}

	ctx := context.Background()
	ref, _, err := referenceFit(ctx, env, cfg, res)
	if err != nil {
		return nil, err
	}
	// A fit starts only while it is expected to end within --seconds (the
	// median fit so far), so the measured region does not overrun by most
	// of a fit; it always holds at least one fit.
	var walls, cpus, allocs, peaks []float64
	start := time.Now()
	for n := 0; n == 0 || time.Since(start).Seconds()+median(walls) <= cfg.seconds; n++ {
		runtime.GC()
		sampler := startPeakSampler()
		c0 := readCounters()
		r, err := env.fitOnce(ctx, nil)
		c1 := readCounters()
		peaks = append(peaks, sampler.Stop())
		res.Attempted++
		if err != nil {
			res.fail("fit %d: %v", n+1, err)
			continue
		}
		d := c0.to(c1)
		walls = append(walls, d.wall)
		cpus = append(cpus, d.cpu)
		allocs = append(allocs, d.allocBytes)
		if r.fp != ref {
			res.fail("fit %d selected fingerprint %s, reference %s", n+1, r.fp, ref)
		}
	}

	wall := median(walls)
	logf("%d fits, walls %.3f s, cpu %.3f s, peaks %.1f MB, fingerprint %s", len(walls), walls, cpus, peaks, ref)
	res.set("setup_s", "s", setupS)
	res.set("rows_per_s", "rows/s", ratio(fitRows, wall))
	res.set("alloc_kb_per_row", "KB/row", median(allocs)/fitRows/1024)
	res.set("peak_live_heap_mb", "MB", median(peaks))
	res.set("p50_ms", "ms", wall*1e3)
	return res, nil
}

// repeatSetup performs a workload's set-up setupRepeats times, closes all
// but the last environment, and returns it with the median set-up time.
func repeatSetup[E interface{ close() }](setup func() (E, error)) (E, float64, error) {
	var env E
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			env.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if env, err = setup(); err != nil {
			return env, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return env, median(times), nil
}

// referenceFit runs the in-memory fit of the workload's table, before the
// measured region, and returns its fingerprint and wall time. The
// fingerprint is the selection every measured fit must reproduce; at the
// default seed it must also equal the recorded one. The fit counts as one
// attempted operation, and it warms the heap and the caches for the fits
// after it.
func referenceFit(ctx context.Context, env *fitEnv, cfg runConfig, res *result) (string, float64, error) {
	runtime.GC()
	start := time.Now()
	r, err := safe.Fit(ctx, safe.FromFrame(env.train),
		safe.WithWorkers(cfg.nproc), safe.WithSeed(fitConfigSeed))
	wall := time.Since(start).Seconds()
	if err != nil {
		return "", 0, fmt.Errorf("reference fit: %w", err)
	}
	fp := fingerprint(r.Pipeline)
	res.Attempted++
	if cfg.seed == defaultSeed && fp != defaultFingerprint {
		res.fail("in-memory reference fit selected fingerprint %s, recorded %s", fp, defaultFingerprint)
	}
	return fp, wall, nil
}

// traceFit runs one untraced and one traced fit, checks that the wrappers
// changed nothing the engine computes, and reports the per-layer metrics
// of the traced fit.
func traceFit(env *fitEnv, cfg runConfig, res *result, writeS float64) error {
	ctx := context.Background()
	ref, refWall, err := referenceFit(ctx, env, cfg, res)
	if err != nil {
		return err
	}
	runtime.GC()
	t0 := time.Now()
	plain, err := env.fitOnce(ctx, nil)
	plainWall := time.Since(t0).Seconds()
	res.Attempted++
	if err != nil {
		res.fail("untraced fit: %v", err)
	}

	tr := newTracer()
	ft := newFitTrace(tr)
	runtime.GC()
	c0 := readCounters()
	traced, err := env.fitOnce(ctx, ft)
	c1 := readCounters()
	ft.finish()
	res.Attempted++
	if err != nil {
		res.fail("traced fit: %v", err)
	}

	for name, r := range map[string]fitResult{"untraced": plain, "traced": traced} {
		if r.fp != ref {
			res.fail("%s fit selected fingerprint %s, reference %s", name, r.fp, ref)
		}
	}
	if plain.stats != traced.stats {
		res.fail("shard stats differ: untraced %+v, traced %+v", plain.stats, traced.stats)
	}

	lv := layerValues{}
	d := c0.to(c1)
	lv.runtimeLayer(d)
	lv["trace.overhead"] = ratio(d.wall, plainWall)
	lv["core.inmem_fit_s"] = refWall

	spans := tr.Spans()
	for _, s := range spans {
		switch s.Name {
		case "core.mine", "core.score", "core.generate", "core.iv", "core.pearson", "core.rank":
			lv[s.Name+"_s"] += float64(s.End-s.Start) / 1e9
		case "shard.pass":
			lv["shard.pass_s"] += float64(s.End-s.Start) / 1e9
		}
	}
	self := SelfTime(spans)
	lv.selfTimes(self)
	if traced.rep != nil {
		for _, it := range traced.rep.Iterations {
			lv["core.generated"] += float64(it.Generated)
		}
	}
	ft.mu.Lock()
	iv, pearson := ft.stageIO["iv"], ft.stageIO["pearson"]
	ft.mu.Unlock()
	lv["core.iv_keep_ratio"] = ratio(float64(iv[1]), float64(iv[0]))
	lv["core.pearson_keep_ratio"] = ratio(float64(pearson[1]), float64(pearson[0]))

	st := traced.stats
	lv["shard.passes"] = float64(st.Passes)
	lv["shard.rows_streamed"] = float64(st.RowsStreamed)
	lv["shard.rows_skipped_ratio"] = ratio(float64(st.RowsSkipped), float64(st.RowsStreamed+st.RowsSkipped))
	lv["shard.retries"] = float64(st.Retries)

	const mb = 1 << 20
	lv["colstore.next_s"] = float64(ft.nextNS.Load()) / 1e9
	lv["colstore.chunks"] = float64(ft.chunks.Load())
	lv["colstore.read_mb"] = float64(ft.readBytes.Load()) / mb
	lv["colstore.write_s"] = writeS

	lv["dist.sent_mb"] = float64(ft.sentBytes.Load()) / mb
	lv["dist.recv_mb"] = float64(ft.recvBytes.Load()) / mb
	lv["dist.partial_mb"] = float64(ft.partialBytes.Load()) / mb
	lv["dist.frames"] = float64(ft.frames.Load())
	lv["dist.coord_wait_s"] = float64(ft.coordWaitNS.Load()) / 1e9
	lv["dist.worker_idle_s"] = float64(ft.workerIdleNS.Load()) / 1e9
	lv["dist.worker_send_s"] = float64(ft.workerSendNS.Load()) / 1e9
	lv["dist.pass_skew"] = ft.passSkew()

	if err := kernelProbes(lv, env.train); err != nil {
		return err
	}
	lv.report(res)
	logf("untraced %.3fs traced %.3fs fingerprint %s stats %+v", plainWall, d.wall, traced.fp, st)
	return tr.Write(filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed)),
		traceDump{Workload: cfg.workload, Seed: cfg.seed, GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU: cfg.nproc, SelfTime: self})
}
