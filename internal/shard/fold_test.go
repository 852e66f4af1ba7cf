package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/frame"
	"repro/internal/sketch"
)

// faultExec is an in-process Executor that computes every partial with the
// worker kernel and corrupts the first partial of one pass kind — a worker
// that speaks the protocol but computes the wrong shape.
type faultExec struct {
	src    frame.ChunkSource
	kind   PassKind
	mutate func(*Partial)

	ws  *WorkerState
	hit bool
}

func (e *faultExec) Open(_ context.Context, names []string, task core.Task, sketchSize int) error {
	e.ws = NewWorkerState(names, task, sketchSize)
	return nil
}

func (e *faultExec) SetLive(_ context.Context, epoch int, nodes []NodeSpec, live []string) error {
	return e.ws.SetLive(epoch, nodes, live)
}

func (e *faultExec) RunPass(_ context.Context, spec *PassSpec, fold func(*Partial) error) (PassResult, error) {
	var res PassResult
	if err := e.src.Reset(); err != nil {
		return res, err
	}
	for {
		c, err := e.src.Next()
		if errors.Is(err, io.EOF) {
			return res, nil
		}
		if err != nil {
			return res, err
		}
		p, err := e.ws.ComputePartial(spec, c)
		if err != nil {
			return res, err
		}
		if spec.Kind == e.kind && !e.hit {
			e.hit = true
			e.mutate(p)
		}
		if err := fold(p); err != nil {
			return res, err
		}
		res.Rows += p.Rows
		res.Parts++
	}
}

// TestFoldRejectsMalformedPartials drives a fit through an executor that
// returns one malformed partial per pass kind: every fold must validate the
// partial's shape against the pass it belongs to and abort the fit with an
// error — never panic, never fold a wrong-shaped statistic.
func TestFoldRejectsMalformedPartials(t *testing.T) {
	bin, multi, reg := core.BinaryTask(), core.MulticlassTask(3), core.RegressionTask()
	cases := []struct {
		name   string
		task   core.Task
		kind   PassKind
		mutate func(*Partial)
	}{
		{"base-sketch count", bin, PassBaseSketch, func(p *Partial) { p.Sketches = p.Sketches[:len(p.Sketches)-1] }},
		{"base-sketch labels", bin, PassBaseSketch, func(p *Partial) { p.Labels = p.Labels[1:] }},
		{"codes length", bin, PassCodes, func(p *Partial) { p.Codes[0] = p.Codes[0][:1] }},
		{"codes columns", bin, PassCodes, func(p *Partial) { p.Codes = p.Codes[1:] }},
		{"score-binary slab", bin, PassScoreBinary, func(p *Partial) { p.Ints = p.Ints[:len(p.Ints)-1] }},
		{"score-classes slab", multi, PassScoreClasses, func(p *Partial) { p.Ints = append(p.Ints, 1) }},
		{"score-moment cell id", reg, PassScoreMomentIDs, func(p *Partial) { p.Ints[0] = 1 << 20 }},
		{"score-moment slab", reg, PassScoreMomentIDs, func(p *Partial) { p.Ints = p.Ints[1:] }},
		{"sketch-gen count", bin, PassSketchGen, func(p *Partial) { p.Moments = p.Moments[:len(p.Moments)-1] }},
		{"refine count", bin, PassRefine, func(p *Partial) { p.Gathers = append(p.Gathers, p.Gathers[0]) }},
		{"refine targets", bin, PassRefine, func(p *Partial) {
			p.Gathers[0] = sketch.NewShadowRefiner(nil, nil, nil, nil)
		}},
		{"hist cut mismatch", bin, PassHistCounts, func(p *Partial) {
			p.Hists[0] = sketch.NewLabelHist([]float64{123})
		}},
		{"class-hist cut mismatch", multi, PassHistCounts, func(p *Partial) {
			p.Hists[0] = sketch.NewClassHist([]float64{123}, 3)
		}},
		{"hist count", multi, PassHistCounts, func(p *Partial) { p.Hists = p.Hists[1:] }},
		{"hist-id bin id", reg, PassHistIDs, func(p *Partial) { p.Ints[0] = 1 << 20 }},
		{"hist-id slab", reg, PassHistIDs, func(p *Partial) { p.Ints = p.Ints[:len(p.Ints)-1] }},
		{"gram K mismatch", bin, PassGramCodes, func(p *Partial) {
			p.Gram = sketch.NewGram(99)
		}},
		{"gram codes length", bin, PassGramCodes, func(p *Partial) {
			for i := range p.Codes {
				if p.Codes[i] != nil {
					p.Codes[i] = p.Codes[i][:1]
					return
				}
			}
			p.Codes = p.Codes[1:]
		}},
	}
	data := map[core.TaskKind]*frame.Frame{}
	for _, tc := range []struct {
		task    core.Task
		target  datagen.TargetKind
		classes int
	}{
		{bin, datagen.TargetBinary, 0},
		{multi, datagen.TargetMulticlass, 3},
		{reg, datagen.TargetRegression, 0},
	} {
		ds, err := datagen.Generate(datagen.Spec{
			Name: "fold-test", Train: 3000, Test: 16, Dim: 6, Interactions: 2,
			SignalScale: 2.5, Seed: 5, Target: tc.target, Classes: tc.classes,
		})
		if err != nil {
			t.Fatal(err)
		}
		data[tc.task.Kind] = ds.Train
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ex := &faultExec{src: frame.NewFrameChunks(data[tc.task.Kind], 750), kind: tc.kind, mutate: tc.mutate}
			cfg := DefaultConfig()
			cfg.Core.Task = tc.task
			cfg.Core.Seed = 1
			cfg.SketchSize = 32 // small sketches leave brackets open: the refine pass runs
			cfg.Exec = ex
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("panic: %v", r)
						t.Errorf("fold panicked on a malformed %s partial: %v", tc.name, r)
					}
				}()
				_, _, _, err = Fit(context.Background(), ex.src, cfg)
				return err
			}()
			if !ex.hit {
				t.Fatalf("the fit never ran a pass of kind %d", tc.kind)
			}
			if err == nil {
				t.Fatalf("a malformed %s partial folded without error", tc.name)
			}
		})
	}
}
