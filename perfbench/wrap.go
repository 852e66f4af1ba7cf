package main

import (
	"encoding/binary"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/frame"
)

// fitTrace collects the spans and layer counters of one fit. Its wrappers
// observe the layers from outside: the FitEvent stage stream, the chunk
// source the engine streams, and both ends of every worker connection.
type fitTrace struct {
	t     *Tracer
	trace int64 // shared by every span of this fit
	root  int64 // the fit span
	start time.Time

	mu         sync.Mutex
	stage      int64 // open stage span (0 between stages)
	stageName  string
	stageStart time.Time
	pass       int64 // open source pass span (0 when none)
	passStart  time.Time
	passParent int64
	distPasses map[int64]*distPass // by wire pass ID
	stageIO    map[string][2]int   // stage input and output sizes, summed over rounds

	chunks    atomic.Int64
	readBytes atomic.Int64
	nextNS    atomic.Int64

	sentBytes, recvBytes, partialBytes, frames atomic.Int64
	coordWaitNS, workerIdleNS, workerSendNS    atomic.Int64
}

// distPass is one wire pass: per connection, the interval from its runPass
// send to its passDone receipt.
type distPass struct {
	parent int64
	conns  map[*coordConn][2]time.Time
}

func newFitTrace(t *Tracer) *fitTrace {
	return &fitTrace{t: t, trace: t.NewID(), root: t.NewID(), start: time.Now(),
		distPasses: make(map[int64]*distPass), stageIO: make(map[string][2]int)}
}

// parentLocked is the span new work hangs under: the open stage, else the
// fit.
func (ft *fitTrace) parentLocked() int64 {
	if ft.stage != 0 {
		return ft.stage
	}
	return ft.root
}

func (ft *fitTrace) closePassLocked(end time.Time) {
	if ft.pass != 0 {
		ft.t.Record(ft.pass, ft.trace, ft.passParent, "shard.pass", ft.passStart, end)
		ft.pass = 0
	}
}

// onEvent turns stage start/end events into core.<stage> spans. A source
// pass still open when its stage ends is closed there.
func (ft *fitTrace) onEvent(ev core.FitEvent) {
	now := time.Now()
	ft.mu.Lock()
	defer ft.mu.Unlock()
	switch ev.Kind {
	case core.EventStageStart:
		ft.stage, ft.stageName, ft.stageStart = ft.t.NewID(), stageMetric(ev.Stage), now
	case core.EventStageEnd:
		if ft.stage == 0 {
			return
		}
		if ft.pass != 0 && ft.passParent == ft.stage {
			ft.closePassLocked(now)
		}
		ft.t.Record(ft.stage, ft.trace, ft.root, "core."+ft.stageName, ft.stageStart, now)
		io := ft.stageIO[ft.stageName]
		ft.stageIO[ft.stageName] = [2]int{io[0] + ev.Candidates, io[1] + ev.Survivors}
		ft.stage = 0
	}
}

// stageMetric names a stage as the per-layer metrics do.
func stageMetric(s core.Stage) string {
	switch s {
	case core.StageMine:
		return "mine"
	case core.StageScore:
		return "score"
	case core.StageGenerate:
		return "generate"
	case core.StageIVFilter:
		return "iv"
	case core.StagePearson:
		return "pearson"
	case core.StageRank:
		return "rank"
	}
	return "unknown"
}

// finish closes whatever is still open and records the fit span, then
// turns the wire pass intervals into shard.pass and dist.pass spans.
func (ft *fitTrace) finish() {
	end := time.Now()
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.closePassLocked(end)
	if ft.stage != 0 {
		ft.t.Record(ft.stage, ft.trace, ft.root, "core."+ft.stageName, ft.stageStart, end)
		ft.stage = 0
	}
	ft.t.Record(ft.root, ft.trace, 0, "fit", ft.start, end)
	for _, p := range ft.distPasses {
		var lo, hi time.Time
		for _, iv := range p.conns {
			if lo.IsZero() || iv[0].Before(lo) {
				lo = iv[0]
			}
			if iv[1].After(hi) {
				hi = iv[1]
			}
		}
		if hi.IsZero() {
			continue // never completed
		}
		id := ft.t.Add(ft.trace, p.parent, "shard.pass", lo, hi)
		for _, iv := range p.conns {
			if !iv[1].IsZero() {
				ft.t.Add(ft.trace, id, "dist.pass", iv[0], iv[1])
			}
		}
	}
}

// passSkew is the slowest ÷ fastest worker time of a wire pass, maximum
// over passes; 0 when no pass ran on two or more workers.
func (ft *fitTrace) passSkew() float64 {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	worst := 0.0
	for _, p := range ft.distPasses {
		var lo, hi time.Duration
		n := 0
		for _, iv := range p.conns {
			if iv[1].IsZero() {
				continue
			}
			d := iv[1].Sub(iv[0])
			if n == 0 || d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
			n++
		}
		if n >= 2 && lo > 0 {
			worst = max(worst, float64(hi)/float64(lo))
		}
	}
	return worst
}

// ---- chunk source wrapper ----

// tracedSource times every Next of the source a sharded fit streams and
// delimits passes by Reset. The constructors below keep the optional
// frame.SkippableSource and frame.StableSource interfaces visible, so the
// engine plans block skipping and prefetch exactly as on the bare source.
type tracedSource struct {
	src frame.ChunkSource
	ft  *fitTrace
}

func (s *tracedSource) Names() []string { return s.src.Names() }
func (s *tracedSource) NumCols() int    { return s.src.NumCols() }

// Reset closes the open pass span and opens the next one.
func (s *tracedSource) Reset() error {
	now := time.Now()
	ft := s.ft
	ft.mu.Lock()
	ft.closePassLocked(now)
	ft.pass, ft.passStart, ft.passParent = ft.t.NewID(), now, ft.parentLocked()
	ft.mu.Unlock()
	return s.src.Reset()
}

// Next records a colstore.next span under the open pass.
func (s *tracedSource) Next() (*frame.Chunk, error) {
	start := time.Now()
	c, err := s.src.Next()
	end := time.Now()
	ft := s.ft
	ft.mu.Lock()
	parent := ft.pass
	if parent == 0 {
		parent = ft.parentLocked()
	}
	ft.mu.Unlock()
	ft.t.Add(ft.trace, parent, "colstore.next", start, end)
	ft.nextNS.Add(end.Sub(start).Nanoseconds())
	if err == nil && c != nil {
		cols := len(c.Cols)
		if c.Label != nil {
			cols++
		}
		ft.chunks.Add(1)
		ft.readBytes.Add(int64(c.NumRows() * cols * 8))
	}
	return c, err
}

type skipForward struct{ ss frame.SkippableSource }

func (f skipForward) NumChunks() int                    { return f.ss.NumChunks() }
func (f skipForward) ChunkStats(i int) []frame.ColStats { return f.ss.ChunkStats(i) }
func (f skipForward) SetSkip(skip []bool)               { f.ss.SetSkip(skip) }

type stableForward struct{ st frame.StableSource }

func (f stableForward) StableChunks() bool { return f.st.StableChunks() }

// wrapSource returns a traced view of src with the same optional
// interfaces.
func wrapSource(src frame.ChunkSource, ft *fitTrace) frame.ChunkSource {
	t := &tracedSource{src: src, ft: ft}
	ss, skippable := src.(frame.SkippableSource)
	st, stable := src.(frame.StableSource)
	switch {
	case skippable && stable:
		return struct {
			*tracedSource
			skipForward
			stableForward
		}{t, skipForward{ss}, stableForward{st}}
	case skippable:
		return struct {
			*tracedSource
			skipForward
		}{t, skipForward{ss}}
	case stable:
		return struct {
			*tracedSource
			stableForward
		}{t, stableForward{st}}
	}
	return t
}

// ---- worker connection wrappers ----

// Wire message types the wrappers classify frames by (the first byte of
// every frame, internal/dist wire version 1).
const (
	wireRunPass  = 6
	wirePartial  = 7
	wirePassDone = 8
)

// wirePassID reads the pass ID that follows the type byte of runPass and
// passDone frames.
func wirePassID(msg []byte) int64 {
	if len(msg) < 9 {
		return -1
	}
	return int64(binary.LittleEndian.Uint64(msg[1:9]))
}

// coordConn wraps the coordinator's end of one worker connection: bytes and
// frames by message type, time blocked in Recv while the worker owes a
// pass, and each pass's runPass → passDone interval.
type coordConn struct {
	inner dist.Conn
	ft    *fitTrace

	mu      sync.Mutex
	pending bool // a runPass was sent and its passDone has not arrived
}

func (c *coordConn) Send(msg []byte) error {
	if len(msg) > 0 && msg[0] == wireRunPass {
		id := wirePassID(msg)
		now := time.Now()
		ft := c.ft
		ft.mu.Lock()
		p := ft.distPasses[id]
		if p == nil {
			p = &distPass{parent: ft.parentLocked(), conns: make(map[*coordConn][2]time.Time)}
			ft.distPasses[id] = p
		}
		p.conns[c] = [2]time.Time{now}
		ft.mu.Unlock()
		c.mu.Lock()
		c.pending = true
		c.mu.Unlock()
	}
	err := c.inner.Send(msg)
	c.ft.sentBytes.Add(int64(len(msg)))
	c.ft.frames.Add(1)
	return err
}

func (c *coordConn) Recv() ([]byte, error) {
	start := time.Now()
	msg, err := c.inner.Recv()
	end := time.Now()
	c.mu.Lock()
	pending := c.pending
	if pending && err == nil && len(msg) > 0 && msg[0] == wirePassDone {
		c.pending = false
	}
	c.mu.Unlock()
	ft := c.ft
	if pending {
		ft.coordWaitNS.Add(end.Sub(start).Nanoseconds())
	}
	if err != nil || len(msg) == 0 {
		return msg, err
	}
	ft.recvBytes.Add(int64(len(msg)))
	ft.frames.Add(1)
	switch msg[0] {
	case wirePartial:
		ft.partialBytes.Add(int64(len(msg)))
	case wirePassDone:
		id := wirePassID(msg)
		ft.mu.Lock()
		if p := ft.distPasses[id]; p != nil {
			if iv, ok := p.conns[c]; ok {
				p.conns[c] = [2]time.Time{iv[0], end}
			}
		}
		ft.mu.Unlock()
	}
	return msg, nil
}

func (c *coordConn) Close() error { return c.inner.Close() }

// workerConn wraps a worker's end of a connection: time blocked in Recv
// waiting for work, and time spent in Send.
type workerConn struct {
	inner dist.Conn
	ft    *fitTrace
}

func (c *workerConn) Send(msg []byte) error {
	start := time.Now()
	err := c.inner.Send(msg)
	end := time.Now()
	c.ft.workerSendNS.Add(end.Sub(start).Nanoseconds())
	c.ft.t.Add(c.ft.trace, c.ft.root, "dist.worker_send", start, end)
	return err
}

func (c *workerConn) Recv() ([]byte, error) {
	start := time.Now()
	msg, err := c.inner.Recv()
	end := time.Now()
	if err == nil || errors.Is(err, io.EOF) {
		c.ft.workerIdleNS.Add(end.Sub(start).Nanoseconds())
	}
	return msg, err
}

func (c *workerConn) Close() error { return c.inner.Close() }
