package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/colstore"
	"repro/internal/datagen"
	"repro/internal/dist"
	"repro/internal/frame"
	"repro/internal/shard"
)

// Fit engines the fit workloads drive.
const (
	engineColstore = "colstore"
	engineDist     = "dist"
)

// fitTable generates the workload table for a seed: 100k rows × 50 base
// features with planted interactions and a binary label — the shape of
// the legacy fit-100k-50 cells. The planted structure is that of
// defaultSeed (the legacy cells' table); the seed shuffles the rows, so
// every seed streams different partitions through the engines while the
// work a fit does stays the same.
func fitTable(seed int64) (*frame.Frame, error) {
	ds, err := datagen.Generate(datagen.Spec{
		Name:         "perfbench-fit",
		Train:        fitRows,
		Test:         fitTestRows,
		Dim:          fitDim,
		Interactions: fitDim / 3,
		SignalScale:  2.5,
		Seed:         defaultSeed,
	})
	if err != nil {
		return nil, err
	}
	if seed != defaultSeed {
		ds.Train.Shuffle(rand.New(rand.NewSource(seed)))
	}
	return ds.Train, nil
}

// fingerprint hashes the selected formulas in order: two fits agree on it
// exactly when they selected the same features in the same order.
func fingerprint(p *safe.Pipeline) string {
	sum := sha256.Sum256([]byte(strings.Join(p.Formulas(), "\n")))
	return hex.EncodeToString(sum[:8])
}

// fitEnv is a fit workload after set-up: the table, its colstore file, and
// for the distributed engine a running worker fleet.
type fitEnv struct {
	engine string
	nproc  int
	train  *frame.Frame
	path   string
	fleet  *fleet
	writeS float64 // colstore write time of this set-up
}

// setupFit prepares a fit workload: generate the table, write it to a
// colstore file with one row group per partition, start the worker fleet.
func setupFit(engine string, seed int64, outDir string, nproc int) (*fitEnv, error) {
	train, err := fitTable(seed)
	if err != nil {
		return nil, err
	}
	env := &fitEnv{engine: engine, nproc: nproc, train: train,
		path: filepath.Join(outDir, fmt.Sprintf("fit-%d.col", seed))}
	start := time.Now()
	opt := colstore.WriterOptions{GroupRows: (fitRows + fitPartitions - 1) / fitPartitions}
	if err := colstore.WriteFrame(env.path, train, opt); err != nil {
		return nil, err
	}
	env.writeS = time.Since(start).Seconds()
	if engine == engineDist {
		if env.fleet, err = startFleet(); err != nil {
			return nil, err
		}
	}
	return env, nil
}

// close stops the fleet and removes the colstore file.
func (e *fitEnv) close() {
	if e.fleet != nil {
		e.fleet.close()
	}
	_ = os.Remove(e.path) // a leftover file under the build directory is harmless
}

// fitResult is what one fit call produced.
type fitResult struct {
	fp    string
	stats shard.Stats
	rep   *safe.Report
}

// fitOnce runs one fit of the workload. With ft set, the wrappers record
// spans and layer counters; without, the engines run on the bare layers.
func (e *fitEnv) fitOnce(ctx context.Context, ft *fitTrace) (fitResult, error) {
	opts := []safe.Option{safe.WithWorkers(e.nproc), safe.WithSeed(fitConfigSeed)}
	if ft != nil {
		opts = append(opts, safe.WithEvents(ft.onEvent))
	}
	var (
		res *safe.Result
		err error
	)
	switch e.engine {
	case engineColstore:
		res, err = e.fitColstore(ctx, ft, opts)
	case engineDist:
		res, err = e.fitDist(ctx, ft, opts)
	default:
		err = fmt.Errorf("unknown engine %q", e.engine)
	}
	if err != nil {
		return fitResult{}, err
	}
	out := fitResult{fp: fingerprint(res.Pipeline), rep: res.Report}
	if res.Shard != nil {
		out.stats = *res.Shard
	}
	return out, nil
}

// fitColstore fits the colstore file out of core over its mmap reader, as
// safe.FromColumnFile does, with the reader wrapped when tracing.
func (e *fitEnv) fitColstore(ctx context.Context, ft *fitTrace, opts []safe.Option) (*safe.Result, error) {
	src, err := colstore.OpenSource(e.path)
	if err != nil {
		return nil, err
	}
	defer src.Close() //nolint:errcheck // read-only mapping
	var cs frame.ChunkSource = src
	if ft != nil {
		cs = wrapSource(src, ft)
	}
	return safe.Fit(ctx, safe.FromChunks(cs), opts...)
}

// fitDist runs the sharded engine with pass compute delegated over
// loopback TCP to the in-process fleet, as safe.WithDistributed does, but
// dialling the connections itself so both ends can be wrapped.
func (e *fitEnv) fitDist(ctx context.Context, ft *fitTrace, opts []safe.Option) (*safe.Result, error) {
	plan, err := safe.NewPlan(safe.FromColumnFile(e.path), opts...)
	if err != nil {
		return nil, err
	}
	e.fleet.tracing.Store(ft)
	defer e.fleet.tracing.Store(nil)
	conns := make([]dist.Conn, 0, e.nproc)
	for i := 0; i < e.nproc; i++ {
		nc, err := net.Dial("tcp", e.fleet.addr())
		if err != nil {
			for _, c := range conns {
				_ = c.Close()
			}
			return nil, err
		}
		var c dist.Conn = dist.NewConn(nc)
		if ft != nil {
			c = &coordConn{inner: c, ft: ft}
		}
		conns = append(conns, c)
	}
	coord := dist.NewCoordinator(dist.SourceSpec{Kind: dist.SourceColstore, Path: e.path}, conns...)
	defer coord.Close() //nolint:errcheck // Close always returns nil
	src, err := colstore.OpenSource(e.path)
	if err != nil {
		return nil, err
	}
	defer src.Close() //nolint:errcheck // read-only mapping
	p, rep, st, err := shard.Fit(ctx, src, shard.Config{Core: plan.Config(), Exec: coord})
	if err != nil {
		return nil, err
	}
	return &safe.Result{Pipeline: p, Report: rep, Shard: st}, nil
}

// fleet is the worker service, in this process: it accepts loopback
// connections and runs dist.ServeConn on each, wrapping the
// worker end while a traced fit is in flight.
type fleet struct {
	ln      net.Listener
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	tracing atomic.Pointer[fitTrace]
}

func startFleet() (*fleet, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleet{ln: ln, cancel: cancel}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			var c dist.Conn = dist.NewConn(nc)
			if ft := f.tracing.Load(); ft != nil {
				c = &workerConn{inner: c, ft: ft}
			}
			f.wg.Add(1)
			go func() {
				defer f.wg.Done()
				_ = dist.ServeConn(ctx, c) // a failed session fails the coordinator's fit
			}()
		}
	}()
	return f, nil
}

func (f *fleet) addr() string { return f.ln.Addr().String() }

// close stops accepting, ends every session and waits for them.
func (f *fleet) close() {
	f.cancel()
	_ = f.ln.Close()
	f.wg.Wait()
}
