package shard

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/operators"
	"repro/internal/sketch"
	"repro/internal/stats"
)

// This file is the pass kernel: the one implementation of what every
// streaming pass computes per chunk. The fit coordinator (passes.go)
// reifies each pass into a serializable PassSpec and hands it to an
// Executor together with the pass's fold; the executor streams the source,
// runs WorkerState's kernel on every chunk, and feeds the resulting
// Partials to the fold in partition-index order — so selection is
// bit-identical for any executor, worker count or placement.
//
// Two executors exist. The in-process one (runner.go) runs the kernel on
// the internal/parallel pool over the local source; internal/dist's
// Coordinator ships the spec to worker processes, which run the same
// kernel (ComputePartial) and send the partials back over the wire.

// PassKind identifies which streaming pass a PassSpec describes.
type PassKind uint8

// The streaming pass kinds of one fit, in the order the fit first runs them.
const (
	PassBaseSketch     PassKind = 1  // labels + per-original quantile/moments partials
	PassCodes          PassKind = 2  // resident miner codes per live feature
	PassScoreBinary    PassKind = 3  // combo cells: pos/total counts
	PassScoreClasses   PassKind = 4  // combo cells: K-class counts
	PassScoreMomentIDs PassKind = 5  // combo cells: per-row cell ids (regression)
	PassSketchGen      PassKind = 6  // quantile/moments partials per generated candidate
	PassRefine         PassKind = 7  // exact-cut gather partials
	PassHistCounts     PassKind = 8  // criterion histogram partials (binary/multiclass)
	PassHistIDs        PassKind = 9  // criterion bin ids (regression)
	PassGramCodes      PassKind = 10 // pairwise co-moments + ranker codes
)

// NodeSpec is one generated feature's definition, serializable by name: the
// applier is reconstructed on the worker by resolving Op in the operator
// registry (valid because the sharded engine only admits data-independent
// operators).
type NodeSpec struct {
	Name   string
	Inputs []string
	Op     string
}

// GenSpec is one not-yet-named candidate column: operator applied to live
// features (by live index).
type GenSpec struct {
	Op    string
	Feats []int
}

// ComboSpec is one mined combination to score: live feature indices plus the
// per-feature split-value sets (pre-thinning, exactly as MineCombos emits
// them — the worker rebuilds the identical ComboCells).
type ComboSpec struct {
	Features []int
	Values   [][]float64
}

// EntrySpec is one candidate of the histogram/Gram passes: a base entry
// reads live column Base; a generated entry recomputes Gen. Cuts are the
// pass's bin edges (criterion cuts or ranker cuts, per kind).
type EntrySpec struct {
	Base      int // live index, or -1 for generated entries
	Gen       GenSpec
	Cuts      []float64
	NeedCodes bool // PassGramCodes: materialise ranker codes for this entry
}

// RefineSpec is one open exact-cut refinement: the bracket arrays from the
// coordinator's Refiner plus the column to gather from — a raw source column
// (Col >= 0, the pre-generation live pass) or a generated candidate (Gen).
type RefineSpec struct {
	Col      int // source column index, or -1 for generated
	Gen      GenSpec
	Ranks    []int64
	Lo, Hi   []float64
	Resolved []bool
}

// PassSpec describes one streaming pass. Exactly the fields its Kind needs
// are set.
type PassSpec struct {
	Pass    int // 1-based pass ordinal within the fit, for error positioning
	Kind    PassKind
	Epoch   int // live-set epoch this pass must run against
	Classes int // PassScoreClasses: K

	LiveCuts [][]float64  // PassCodes: miner cuts per live feature
	Combos   []ComboSpec  // PassScore*
	Gens     []GenSpec    // PassSketchGen
	Entries  []EntrySpec  // PassHistCounts, PassHistIDs, PassGramCodes
	Refines  []RefineSpec // PassRefine
}

// Partial is one chunk's computed contribution to a pass, as decoded
// values. Which fields are set depends on the pass kind:
//
//	BaseSketch:     Labels = chunk labels; Sketches[j], Moments[j] of source
//	                column j.
//	Codes:          Codes[i] = chunk codes of live feature i.
//	ScoreBinary:    Ints = pos counts then total counts (off-layout slab).
//	ScoreClasses:   Ints = K-class cell counts (off-layout slab).
//	ScoreMomentIDs: Ints = cell id per (active combo, row).
//	SketchGen:      Sketches[i], Moments[i] of Gens[i].
//	Refine:         Gathers[i] = gather partial of Refines[i].
//	HistCounts:     Hists[i] = criterion histogram partial of Entries[i].
//	HistIDs:        Ints = bin id per (entry, row).
//	GramCodes:      Gram = co-moment partial; Codes[i] = chunk ranker codes
//	                of Entries[i] when its NeedCodes is set (nil otherwise).
//
// The kernel draws sketches, Gram partials and int slabs from its arena;
// the in-process executor returns them there once folded, so a local fit
// recycles them without ever serializing. Only internal/dist encodes a
// Partial, with the sketch wire codecs. Folds bounds-check every field
// before indexing.
type Partial struct {
	Chunk    int
	Start    int
	Rows     int
	Labels   []float64
	Sketches []*sketch.Quantile
	Moments  []sketch.Moments
	Gathers  []*sketch.Refiner
	Hists    []sketch.CriterionHist
	Gram     *sketch.Gram
	Ints     []int32
	Codes    [][]uint8
}

// PassResult summarises one executed pass.
type PassResult struct {
	Rows    int // rows read and folded
	Parts   int // partitions folded, including skipped ones
	Retries int64
	// BlocksSkipped and RowsSkipped count partitions proven irrelevant from
	// block statistics and never read (their contribution was folded from
	// the statistics instead).
	BlocksSkipped int
	RowsSkipped   int
}

// Executor runs streaming passes — the seam between the fit coordinator and
// where the chunks are read. RunPass must invoke fold with every
// partition's Partial exactly once, in ascending partition order, and must
// not call fold concurrently. Implementations retry transient faults below
// the fold, so a recovered pass folds the same sequence a fault-free one
// would.
type Executor interface {
	// Open announces the fit's schema and constants. Called once, before any
	// pass.
	Open(ctx context.Context, names []string, task core.Task, sketchSize int) error
	// SetLive syncs the live feature set (and the node program deriving it)
	// ahead of passes that evaluate live columns. Epochs increase
	// monotonically; a PassSpec carries the epoch it expects.
	SetLive(ctx context.Context, epoch int, nodes []NodeSpec, live []string) error
	// RunPass executes one pass over every partition of the source.
	RunPass(ctx context.Context, spec *PassSpec, fold func(*Partial) error) (PassResult, error)
}

// WorkerState runs the pass kernel for one fit. It holds what every chunk
// computation shares read-only: the schema, the live-set node program
// (synced by SetLive epochs) and the current pass's program, which is
// derived once per pass from its PassSpec. Per-goroutine scratch lives in a
// kernelScratch; ComputePartial uses a built-in one, so a sequential caller
// needs nothing else.
type WorkerState struct {
	names      []string
	task       core.Task
	sketchSize int
	reg        *operators.Registry
	arena      *sketch.Arena
	appliers   map[string]operators.Applier

	epoch int
	nodes []core.FeatureNode
	live  []string

	prog *passProgram
	scr  kernelScratch
}

// NewWorkerState prepares worker-side fit state for the given schema,
// resolving operators in the built-in registry.
func NewWorkerState(names []string, task core.Task, sketchSize int) *WorkerState {
	return newWorkerState(names, task, sketchSize, operators.NewRegistry(), sketch.NewArena())
}

func newWorkerState(names []string, task core.Task, sketchSize int, reg *operators.Registry, arena *sketch.Arena) *WorkerState {
	return &WorkerState{
		names:      names,
		task:       task,
		sketchSize: sketchSize,
		reg:        reg,
		arena:      arena,
		appliers:   map[string]operators.Applier{},
	}
}

// applier resolves (and caches) the stateless applier for an operator name.
func (ws *WorkerState) applier(op string, arity int) (operators.Applier, error) {
	if ap, ok := ws.appliers[op]; ok {
		return ap, nil
	}
	o, err := ws.reg.Get(op)
	if err != nil {
		return nil, fmt.Errorf("shard: worker operator %q: %w", op, err)
	}
	if !operators.DataIndependent(o) {
		return nil, fmt.Errorf("shard: worker operator %q is not data-independent", op)
	}
	if int(o.Arity()) != arity {
		return nil, fmt.Errorf("shard: worker operator %q wants arity %d, got %d", op, o.Arity(), arity)
	}
	ap, err := o.Fit(make([][]float64, arity))
	if err != nil {
		return nil, fmt.Errorf("shard: worker fit %q: %w", op, err)
	}
	ws.appliers[op] = ap
	return ap, nil
}

// SetLive installs a live-set epoch: the node program is rebuilt from the
// specs (appliers by registry name).
func (ws *WorkerState) SetLive(epoch int, nodes []NodeSpec, live []string) error {
	prog := make([]core.FeatureNode, len(nodes))
	for i, nd := range nodes {
		ap, err := ws.applier(nd.Op, len(nd.Inputs))
		if err != nil {
			return err
		}
		prog[i] = core.FeatureNode{Name: nd.Name, Inputs: nd.Inputs, Applier: ap}
	}
	ws.nodes, ws.live, ws.epoch, ws.prog = prog, live, epoch, nil
	return nil
}

// ComputePartial computes one chunk's contribution to the given pass. The
// pass program is derived on the first chunk of a spec and reused for the
// rest; the caller streams its assigned chunks through here and ships the
// partials back for the ordered fold, then hands them to Release.
func (ws *WorkerState) ComputePartial(spec *PassSpec, c *frame.Chunk) (*Partial, error) {
	pg, err := ws.program(spec)
	if err != nil {
		return nil, err
	}
	return ws.compute(pg, c, &ws.scr)
}

// Release returns a partial's arena-backed values to the worker's arena
// once the partial has been shipped.
func (ws *WorkerState) Release(p *Partial) { recyclePartial(ws.arena, p) }

// recyclePartial returns the arena-backed values of a folded or shipped
// partial to a: sketches, the Gram partial and the int slab.
func recyclePartial(a *sketch.Arena, p *Partial) {
	for i, q := range p.Sketches {
		a.PutQuantile(q)
		p.Sketches[i] = nil
	}
	a.PutGram(p.Gram)
	a.PutInt32s(p.Ints)
	p.Gram, p.Ints = nil, nil
}

// genCol is one column of a pass program: a generated column's resolved
// applier and live-set inputs, or (nil applier) the index of a base column
// — a live column, or a source column for the refine pass.
type genCol struct {
	ap    operators.Applier
	feats []int
	base  int
}

// passProgram is one pass's setup, derived once from its PassSpec and read
// concurrently by every chunk computation of the pass: resolved appliers,
// combo cell grids and slab offsets, refiner shadow templates (sharing one
// edge index), and criterion histogram templates.
type passProgram struct {
	spec     *PassSpec
	needLive bool // the kernel evaluates the live columns

	cols   []genCol               // SketchGen: Gens; Refine/Hist*/Gram: per entry
	cells  []*core.ComboCells     // PassScore*
	off    []int                  // PassScore*: per-combo slab offsets
	refs   []*sketch.Refiner      // PassRefine: shadow templates
	hists  []sketch.CriterionHist // PassHistCounts, PassHistIDs: templates
	labels bool                   // the kernel reads chunk labels
}

// program returns the pass program for spec, deriving it when spec is new.
// Validation against the schema and live set happens here, once per pass.
func (ws *WorkerState) program(spec *PassSpec) (*passProgram, error) {
	if ws.prog != nil && ws.prog.spec == spec {
		return ws.prog, nil
	}
	if spec.Epoch != ws.epoch {
		return nil, fmt.Errorf("shard: pass wants live epoch %d, worker has %d", spec.Epoch, ws.epoch)
	}
	pg := &passProgram{spec: spec, needLive: true}
	var err error
	switch spec.Kind {
	case PassBaseSketch:
		pg.needLive, pg.labels = false, true
	case PassCodes:
		if len(spec.LiveCuts) != len(ws.live) {
			return nil, fmt.Errorf("shard: codes pass has %d cut sets for %d live", len(spec.LiveCuts), len(ws.live))
		}
	case PassScoreBinary, PassScoreClasses, PassScoreMomentIDs:
		mult := 1
		if spec.Kind == PassScoreClasses {
			if spec.Classes < 2 {
				return nil, fmt.Errorf("shard: class-score pass for %d classes", spec.Classes)
			}
			mult = spec.Classes
		}
		pg.labels = spec.Kind != PassScoreMomentIDs
		pg.cells, pg.off, err = comboLayout(spec.Combos, mult, len(ws.live))
	case PassSketchGen:
		pg.cols = make([]genCol, len(spec.Gens))
		for i, g := range spec.Gens {
			if pg.cols[i], err = ws.resolveGen(g); err != nil {
				return nil, err
			}
		}
	case PassRefine:
		pg.needLive = false
		pg.cols = make([]genCol, len(spec.Refines))
		pg.refs = make([]*sketch.Refiner, len(spec.Refines))
		for i := range spec.Refines {
			rf := &spec.Refines[i]
			if rf.Col >= len(ws.names) {
				return nil, fmt.Errorf("shard: refine column %d outside schema of %d", rf.Col, len(ws.names))
			}
			if n := len(rf.Ranks); len(rf.Lo) != n || len(rf.Hi) != n || len(rf.Resolved) != n {
				return nil, fmt.Errorf("shard: refine target %d has mismatched bracket arrays", i)
			}
			if rf.Col >= 0 {
				pg.cols[i] = genCol{base: rf.Col}
			} else {
				pg.needLive = true
				if pg.cols[i], err = ws.resolveGen(rf.Gen); err != nil {
					return nil, err
				}
			}
			pg.refs[i] = sketch.NewShadowRefiner(rf.Ranks, rf.Lo, rf.Hi, rf.Resolved)
		}
	case PassHistCounts, PassHistIDs, PassGramCodes:
		pg.labels = spec.Kind == PassHistCounts
		pg.cols = make([]genCol, len(spec.Entries))
		for i := range spec.Entries {
			e := &spec.Entries[i]
			if e.Base >= 0 {
				if e.Base >= len(ws.live) {
					return nil, fmt.Errorf("shard: entry base %d outside live set of %d", e.Base, len(ws.live))
				}
				pg.cols[i] = genCol{base: e.Base}
			} else if pg.cols[i], err = ws.resolveGen(e.Gen); err != nil {
				return nil, err
			}
		}
		if spec.Kind != PassGramCodes {
			pg.hists = make([]sketch.CriterionHist, len(spec.Entries))
			for i := range spec.Entries {
				pg.hists[i] = ws.newHist(spec.Kind, spec.Entries[i].Cuts)
			}
		}
	default:
		return nil, fmt.Errorf("shard: unknown pass kind %d", spec.Kind)
	}
	if err != nil {
		return nil, err
	}
	ws.prog = pg
	return pg, nil
}

// resolveGen resolves a generated column's applier and checks its inputs
// against the live set.
func (ws *WorkerState) resolveGen(g GenSpec) (genCol, error) {
	ap, err := ws.applier(g.Op, len(g.Feats))
	if err != nil {
		return genCol{}, err
	}
	for _, fi := range g.Feats {
		if fi < 0 || fi >= len(ws.live) {
			return genCol{}, fmt.Errorf("shard: generated input %d outside live set of %d", fi, len(ws.live))
		}
	}
	return genCol{ap: ap, feats: g.Feats}, nil
}

// newHist builds a histogram template for an entry of a histogram pass: the
// task's label-count family for count passes, the moment histogram (used
// only for its bin ids) for the regression id pass.
func (ws *WorkerState) newHist(kind PassKind, cuts []float64) sketch.CriterionHist {
	switch {
	case kind == PassHistIDs:
		return sketch.NewMomentHist(cuts)
	case ws.task.Kind == core.TaskMulticlass:
		return sketch.NewClassHist(cuts, ws.task.Classes)
	default:
		return sketch.NewLabelHist(cuts)
	}
}

// comboLayout builds the cell grids and flat slab offsets of a score pass;
// mult is the per-cell width multiplier (1 for binary totals and moment ids,
// K for class counts). Combos whose grid degenerates to one cell get zero
// width and score 0, as in-memory. The kernel and the coordinator's fold
// both call it, which keeps the slab layouts aligned.
func comboLayout(combos []ComboSpec, mult, live int) ([]*core.ComboCells, []int, error) {
	cells := make([]*core.ComboCells, len(combos))
	off := make([]int, len(combos)+1)
	for i := range combos {
		c := &combos[i]
		if len(c.Features) == 0 || len(c.Features) > 3 || len(c.Values) != len(c.Features) {
			return nil, nil, fmt.Errorf("shard: combo %d has %d features and %d split sets", i, len(c.Features), len(c.Values))
		}
		for _, fi := range c.Features {
			if fi < 0 || fi >= live {
				return nil, nil, fmt.Errorf("shard: combo %d feature %d outside live set of %d", i, fi, live)
			}
		}
		cells[i] = core.NewComboCells(&core.Combo{Features: c.Features, Values: c.Values})
		width := 0
		if nc := cells[i].NumCells(); nc > 1 {
			width = nc * mult
		}
		off[i+1] = off[i] + width
	}
	return cells, off, nil
}

// kernelScratch is one goroutine's reusable kernel scratch: the live-column
// evaluator, cut indexer, sort scratch, label encodings and a column
// buffer. Nothing in it outlives one chunk computation.
type kernelScratch struct {
	ev   evaluator
	ix   stats.CutIndexer
	srt  sketch.SortScratch
	bits []uint8
	cls  []int32
	buf  []float64
}

// labelBits returns the chunk's labels thresholded to 0/1 bits.
func (s *kernelScratch) labelBits(labels []float64) []uint8 {
	if cap(s.bits) < len(labels) {
		s.bits = make([]uint8, len(labels))
	}
	bits := s.bits[:len(labels)]
	for i, y := range labels {
		bits[i] = 0
		if y > 0.5 {
			bits[i] = 1
		}
	}
	return bits
}

// labelCls returns the chunk's labels as class ids (-1 when out of range).
func (s *kernelScratch) labelCls(labels []float64, k int) []int32 {
	if cap(s.cls) < len(labels) {
		s.cls = make([]int32, len(labels))
	}
	cls := s.cls[:len(labels)]
	for i, y := range labels {
		cls[i] = -1
		if c := int(y); c >= 0 && c < k {
			cls[i] = int32(c)
		}
	}
	return cls
}

// column returns a reusable scratch column of the given length.
func (s *kernelScratch) column(rows int) []float64 {
	if cap(s.buf) < rows {
		s.buf = make([]float64, rows)
	}
	return s.buf[:rows]
}

// eval computes a program column for the chunk: a base entry's live column,
// or a generated column written into dst with the same post-generation
// sanitisation as every engine.
func (g *genCol) eval(cols [][]float64, dst []float64) []float64 {
	if g.ap == nil {
		return cols[g.base]
	}
	var in [3][]float64
	iv := in[:len(g.feats)]
	for k, fi := range g.feats {
		iv[k] = cols[fi]
	}
	operators.TransformColumn(g.ap, iv, dst)
	core.Sanitize(dst)
	return dst
}

// sketchCol summarises one column into an arena quantile partial.
func (ws *WorkerState) sketchCol(vals []float64, s *kernelScratch) *sketch.Quantile {
	sorted, nan := sketch.SortNonNaN(vals, &s.srt)
	q := ws.arena.Quantile(ws.sketchSize)
	q.AddSortedScratch(sorted, nan, &s.srt)
	return q
}

// compute runs the kernel of pg's pass on one chunk with the given scratch.
// Safe for concurrent use with distinct scratches once pg is built.
func (ws *WorkerState) compute(pg *passProgram, c *frame.Chunk, s *kernelScratch) (*Partial, error) {
	rows := c.NumRows()
	if len(c.Cols) != len(ws.names) {
		return nil, fmt.Errorf("shard: chunk %d has %d columns, want %d", c.Index, len(c.Cols), len(ws.names))
	}
	if c.Label != nil && len(c.Label) != rows {
		return nil, fmt.Errorf("shard: chunk %d label covers %d of %d rows", c.Index, len(c.Label), rows)
	}
	if pg.labels && c.Label == nil {
		return nil, errors.New("shard: source has no label column")
	}
	p := &Partial{Chunk: c.Index, Start: c.Start, Rows: rows}
	var cols [][]float64
	if pg.needLive {
		s.ev.names, s.ev.nodes, s.ev.live, s.ev.arena = ws.names, ws.nodes, ws.live, ws.arena
		cols = s.ev.liveCols(c)
		defer s.ev.release()
	}
	spec := pg.spec
	switch spec.Kind {
	case PassBaseSketch:
		p.Labels = append([]float64(nil), c.Label...)
		p.Sketches = make([]*sketch.Quantile, len(c.Cols))
		p.Moments = make([]sketch.Moments, len(c.Cols))
		for j, col := range c.Cols {
			p.Sketches[j] = ws.sketchCol(col, s)
			p.Moments[j].AddAll(col)
		}
	case PassCodes:
		p.Codes = codeSlabs(len(spec.LiveCuts), rows)
		for i, cuts := range spec.LiveCuts {
			fillCodes(p.Codes[i], cols[i], cuts, &s.ix)
		}
	case PassScoreBinary:
		total := pg.off[len(pg.cells)]
		p.Ints = ws.arena.Int32sZeroed(2 * total)
		bits := s.labelBits(c.Label)
		pg.eachCell(cols, rows, func(ci, r, id int) {
			p.Ints[total+pg.off[ci]+id]++
			p.Ints[pg.off[ci]+id] += int32(bits[r]) // branchless: bit = label > 0.5
		})
	case PassScoreClasses:
		k := spec.Classes
		p.Ints = ws.arena.Int32sZeroed(pg.off[len(pg.cells)])
		cls := s.labelCls(c.Label, k)
		pg.eachCell(cols, rows, func(ci, r, id int) {
			if cl := cls[r]; cl >= 0 {
				p.Ints[pg.off[ci]+id*k+int(cl)]++
			}
		})
	case PassScoreMomentIDs:
		active := 0
		for ci := range pg.cells {
			if pg.off[ci+1] > pg.off[ci] {
				active++
			}
		}
		p.Ints = ws.arena.Int32s(active * rows)
		slot, last := -1, -1
		pg.eachCell(cols, rows, func(ci, r, id int) {
			if ci != last {
				slot, last = slot+1, ci
			}
			p.Ints[slot*rows+r] = int32(id)
		})
	case PassSketchGen:
		buf := s.column(rows)
		p.Sketches = make([]*sketch.Quantile, len(pg.cols))
		p.Moments = make([]sketch.Moments, len(pg.cols))
		for i := range pg.cols {
			col := pg.cols[i].eval(cols, buf)
			p.Sketches[i] = ws.sketchCol(col, s)
			p.Moments[i].AddAll(col)
		}
	case PassRefine:
		p.Gathers = make([]*sketch.Refiner, len(pg.refs))
		for i, tmpl := range pg.refs {
			var vals []float64
			if g := &pg.cols[i]; g.ap != nil {
				vals = g.eval(cols, s.column(rows))
			} else {
				vals = c.Cols[g.base]
			}
			// Per-value streaming beats sort+AddSorted here: the shared edge
			// index classifies each value in O(1), and finalize sorts the few
			// gathered in-bracket values, so the result is bit-identical.
			sh := tmpl.Shadow()
			sh.AddChunk(vals)
			p.Gathers[i] = sh
		}
	case PassHistCounts:
		buf := s.column(rows)
		var bits []uint8
		var cls []int32
		if ws.task.Kind == core.TaskMulticlass {
			cls = s.labelCls(c.Label, ws.task.Classes)
		} else {
			bits = s.labelBits(c.Label)
		}
		p.Hists = make([]sketch.CriterionHist, len(pg.hists))
		for i, tmpl := range pg.hists {
			col := pg.cols[i].eval(cols, buf)
			// The pre-encoded label paths count the same integers as AddCol
			// without re-deriving the label per value per candidate.
			switch h := tmpl.(type) {
			case *sketch.ClassHist:
				sh := h.Shadow()
				sh.AddColCls(col, cls)
				p.Hists[i] = sh
			case *sketch.LabelHist:
				sh := h.Shadow()
				sh.AddColBits(col, bits)
				p.Hists[i] = sh
			}
		}
	case PassHistIDs:
		buf := s.column(rows)
		p.Ints = ws.arena.Int32s(len(pg.hists) * rows)
		for i, tmpl := range pg.hists {
			tmpl.(*sketch.MomentHist).BinIDs(pg.cols[i].eval(cols, buf), p.Ints[i*rows:(i+1)*rows])
		}
	case PassGramCodes:
		mat := make([][]float64, len(pg.cols))
		var owned [][]float64
		for i := range pg.cols {
			var dst []float64
			if pg.cols[i].ap != nil {
				dst = ws.arena.Floats(rows)
				owned = append(owned, dst)
			}
			mat[i] = pg.cols[i].eval(cols, dst)
		}
		need := 0
		for i := range spec.Entries {
			if spec.Entries[i].NeedCodes {
				need++
			}
		}
		slabs := codeSlabs(need, rows)
		p.Codes = make([][]uint8, len(spec.Entries))
		for i := range spec.Entries {
			if e := &spec.Entries[i]; e.NeedCodes {
				p.Codes[i], slabs = slabs[0], slabs[1:]
				fillCodes(p.Codes[i], mat[i], e.Cuts, &s.ix)
			}
		}
		p.Gram = ws.arena.Gram(len(mat))
		p.Gram.AddRows(rows)
		p.Gram.AddPrepared(mat, sketch.PrepChunk(mat), 0, len(mat))
		for _, b := range owned {
			ws.arena.PutFloats(b)
		}
	}
	return p, nil
}

// eachCell maps every row of the chunk to its cell in every active combo
// (combo-major, rows ascending) and calls visit(combo, row, cell).
func (pg *passProgram) eachCell(cols [][]float64, rows int, visit func(ci, r, id int)) {
	var vals [3]float64
	for ci, cc := range pg.cells {
		if pg.off[ci+1] == pg.off[ci] {
			continue
		}
		feats := cc.Features()
		for r := 0; r < rows; r++ {
			for k, fi := range feats {
				vals[k] = cols[fi][r]
			}
			visit(ci, r, cc.CellOf(vals[:len(feats)]))
		}
	}
}

// codeSlabs returns n code columns of the given length backed by one
// allocation.
func codeSlabs(n, rows int) [][]uint8 {
	backing := make([]uint8, n*rows)
	out := make([][]uint8, n)
	for i := range out {
		out[i] = backing[i*rows : (i+1)*rows : (i+1)*rows]
	}
	return out
}

// evaluator materialises the current live feature columns for one chunk:
// originals are zero-copy views of the chunk; derived features replay their
// pipeline nodes (in dependency order) with the same post-generation
// sanitisation the in-memory fit applies to candidate columns. Each
// kernelScratch owns one evaluator, pointed at the current node program per
// chunk; derived-column buffers recycle through the kernel's arena.
type evaluator struct {
	names []string
	nodes []core.FeatureNode
	live  []string // live feature names, original or node
	arena *sketch.Arena

	vals  map[string][]float64
	out   [][]float64
	owned [][]float64 // arena buffers to return on release
}

// liveCols returns the live columns for a chunk, in live order. The result
// (and any derived columns behind it) is valid until release.
func (e *evaluator) liveCols(c *frame.Chunk) [][]float64 {
	if e.vals == nil {
		e.vals = make(map[string][]float64, len(e.names)+len(e.nodes))
	}
	for j, name := range e.names {
		e.vals[name] = c.Cols[j]
	}
	rows := c.NumRows()
	for i := range e.nodes {
		nd := &e.nodes[i]
		in := make([][]float64, len(nd.Inputs))
		for k, dep := range nd.Inputs {
			in[k] = e.vals[dep]
		}
		out := e.arena.Floats(rows)
		e.owned = append(e.owned, out)
		operators.TransformColumn(nd.Applier, in, out)
		core.Sanitize(out)
		e.vals[nd.Name] = out
	}
	if cap(e.out) < len(e.live) {
		e.out = make([][]float64, len(e.live))
	}
	out := e.out[:len(e.live)]
	for i, name := range e.live {
		out[i] = e.vals[name]
	}
	return out
}

// release returns the evaluator's derived-column buffers to the arena and
// drops references into the chunk, which may be recycled right after.
func (e *evaluator) release() {
	for i, b := range e.owned {
		e.arena.PutFloats(b)
		e.owned[i] = nil
	}
	e.owned = e.owned[:0]
	for k := range e.vals {
		delete(e.vals, k)
	}
}

// fillCodes bins one column slice into GBDT codes: 0 for NaN, 1+bin
// otherwise — the binner encoding gbdt.TrainBinned expects.
func fillCodes(dst []uint8, vals, cuts []float64, ix *stats.CutIndexer) {
	ix.Reset(cuts)
	for i, v := range vals {
		if v != v { // NaN
			dst[i] = 0
			continue
		}
		dst[i] = uint8(1 + ix.Find(v))
	}
}
