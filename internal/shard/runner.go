package shard

import (
	"context"
	"errors"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/parallel"
)

// localExec is the in-process Executor Fit installs when Config.Exec is
// nil. It streams the local source and runs the pass kernel on the
// internal/parallel pool — bounded read-ahead, chunk leases, transient-read
// retries and partition-ordered folds — and never serializes a partial:
// kernel and folds recycle through the fitter's one arena.
type localExec struct {
	f        *fitter           // positions read errors by the fit's pass ordinal
	src      frame.ChunkSource // retry-wrapped, and prefetched when parallel
	base     frame.ChunkSource // the raw source, for block-stat skip planning
	pf       *frame.Prefetch   // non-nil when chunks are leased (parallel passes)
	pool     *parallel.Pool
	ws       *WorkerState
	scratch  []kernelScratch // one per pool slot, reused across passes
	retries  int64           // transient reads absorbed; atomic (the prefetch reader adds)
	reported int64           // retries already reported in a PassResult
}

// newLocalExec wraps src for in-process passes. Transient-read retries wrap
// the raw source BELOW the prefetcher: a retried read resolves inside one
// Next call, so it never becomes a sticky stream error and the fold order
// is untouched. Parallel passes need the prefetcher's lease semantics (each
// worker owns its chunk until folded) and read two chunks ahead; a
// single-worker fit reads sequentially and zero-copy. Call close when done.
func newLocalExec(f *fitter, src frame.ChunkSource, retry RetryPolicy, pool *parallel.Pool) *localExec {
	e := &localExec{f: f, base: src, pool: pool, scratch: make([]kernelScratch, pool.Workers())}
	e.src = NewRetrySource(f.ctx, src, retry, &e.retries)
	if pool.Workers() > 1 {
		e.pf = frame.NewPrefetch(e.src, 2, pool.Workers())
		e.src = e.pf
	}
	return e
}

// close stops the prefetcher's reader, if any.
func (e *localExec) close() {
	if e.pf != nil {
		e.pf.Close()
	}
}

// Open implements Executor: the kernel shares the fit's operator registry
// and arena.
func (e *localExec) Open(_ context.Context, names []string, task core.Task, sketchSize int) error {
	e.ws = newWorkerState(names, task, sketchSize, e.f.cfg.Registry, e.f.arena)
	return nil
}

// SetLive implements Executor.
func (e *localExec) SetLive(_ context.Context, epoch int, nodes []NodeSpec, live []string) error {
	return e.ws.SetLive(epoch, nodes, live)
}

// RunPass implements Executor: one full streaming pass over the source.
// The kernel runs once per chunk — concurrently on the pool when it has
// more than one worker — and folds execute serially in partition index
// order regardless of completion order, so every merged statistic
// accumulates exactly as in the single-worker pass. The context is checked
// before every chunk.
func (e *localExec) RunPass(ctx context.Context, spec *PassSpec, fold func(*Partial) error) (PassResult, error) {
	var res PassResult
	if err := ctx.Err(); err != nil {
		return res, err // before Reset starts the read-ahead
	}
	pg, err := e.ws.program(spec)
	if err != nil {
		return res, err
	}
	if spec.Kind == PassRefine && !pg.needLive {
		// The refinement of raw source columns can prove blocks irrelevant
		// from the source's block statistics: those chunks are never read,
		// their exact contribution folded from the stats instead.
		skipped, cleanup, done := e.planSkip(pg, &res)
		if cleanup != nil {
			defer cleanup()
		}
		if skipped != nil {
			if err := fold(skipped); err != nil || done {
				return res, err
			}
		}
	}
	if err := e.src.Reset(); err != nil {
		return res, err
	}
	// A folded partial's sketches, Gram and slab go back to the arena the
	// kernel draws the next chunk's from.
	recycled := func(p *Partial) error {
		if err := fold(p); err != nil {
			return err
		}
		recyclePartial(e.ws.arena, p)
		return nil
	}
	r := &passRun{e: e, ctx: ctx, pg: pg, fold: recycled, res: &res, pending: make(map[int]*Partial)}
	if e.pool.Workers() <= 1 {
		err = r.sequential(&e.scratch[0])
	} else {
		// Each pool slot runs one worker loop; the pool's caller
		// participation guarantees progress even when every helper is busy.
		cerr := e.pool.ForChunksCtx(ctx, e.pool.Workers(), 1, func(lo, hi int) {
			for slot := lo; slot < hi; slot++ {
				r.worker(&e.scratch[slot])
			}
		})
		if err = r.err; err == nil {
			err = cerr
		}
	}
	total := atomic.LoadInt64(&e.retries)
	res.Retries, e.reported = total-e.reported, total
	return res, err
}

// passRun coordinates one pass: chunk handout order defines the partition
// sequence, and deposits drain the pending map in that sequence.
type passRun struct {
	e    *localExec
	ctx  context.Context
	pg   *passProgram
	fold func(*Partial) error
	res  *PassResult

	mu       sync.Mutex
	nextSeq  int // next partition index to hand out
	nextFold int // next partition index to fold
	pending  map[int]*Partial
	eof      bool
	err      error
}

// sequential is the single-worker pass loop: compute and fold inline, chunk
// by chunk, with no copies and no extra goroutines.
func (r *passRun) sequential(s *kernelScratch) error {
	e := r.e
	for seq := 0; ; seq++ {
		if err := r.ctx.Err(); err != nil {
			return err
		}
		c, err := e.src.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return e.f.passReadError(err, seq)
		}
		p, err := e.ws.compute(r.pg, c, s)
		e.recycle(c)
		if err != nil {
			return err
		}
		if err := r.fold(p); err != nil {
			return err
		}
		r.res.Rows += p.Rows
		r.res.Parts++
	}
}

// fail records the first error and stops further handouts.
func (r *passRun) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.eof = true
	r.mu.Unlock()
}

// worker pulls chunks until the stream ends: read (serialized, which pins
// seq to source order), compute concurrently, then deposit and fold every
// consecutively available partition. Each worker holds at most one chunk
// lease and one undeposited partial, so pending stays bounded by the worker
// count with no extra back-pressure machinery.
func (r *passRun) worker(s *kernelScratch) {
	e := r.e
	for {
		r.mu.Lock()
		if r.err != nil || r.eof {
			r.mu.Unlock()
			return
		}
		if err := r.ctx.Err(); err != nil {
			r.mu.Unlock()
			r.fail(err)
			return
		}
		c, err := e.src.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				r.eof = true
				r.mu.Unlock()
				return
			}
			chunk := r.nextSeq
			r.mu.Unlock()
			r.fail(e.f.passReadError(err, chunk))
			return
		}
		seq := r.nextSeq
		r.nextSeq++
		r.mu.Unlock()

		p, err := e.ws.compute(r.pg, c, s)
		e.recycle(c)
		if err != nil {
			r.fail(err)
			return
		}

		r.mu.Lock()
		r.pending[seq] = p
		for r.err == nil {
			d, ok := r.pending[r.nextFold]
			if !ok {
				break
			}
			delete(r.pending, r.nextFold)
			r.nextFold++
			if err := r.fold(d); err != nil {
				r.err = err
				r.eof = true
				break
			}
			r.res.Rows += d.Rows
			r.res.Parts++
		}
		r.mu.Unlock()
	}
}

// recycle returns a chunk lease to the prefetcher, when one is active.
func (e *localExec) recycle(c *frame.Chunk) {
	if e.pf != nil {
		e.pf.Recycle(c)
	}
}

var _ Executor = (*localExec)(nil)
