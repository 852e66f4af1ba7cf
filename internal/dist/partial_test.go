package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/shard"
	"repro/internal/sketch"
)

var updateGolden = flag.Bool("update", false, "rewrite the partial-frame golden files under testdata/")

// goldenNames is the schema of the golden chunk.
var goldenNames = []string{"f0", "f1", "f2", "f3"}

// goldenChunk is the fixed 96-row chunk every golden partial is computed
// from: smooth deterministic columns with a few NaNs, labels cycling
// 0,1,2 (thresholded to bits for the binary task).
func goldenChunk() *frame.Chunk {
	const rows = 96
	c := &frame.Chunk{Index: 3, Start: 480, Cols: make([][]float64, len(goldenNames)), Label: make([]float64, rows)}
	for j := range c.Cols {
		col := make([]float64, rows)
		for i := range col {
			col[i] = math.Sin(float64(i)*0.37+float64(j)*1.3) * float64(j+1)
			if (i+j)%29 == 7 {
				col[i] = math.NaN()
			}
		}
		c.Cols[j] = col
	}
	for i := range c.Label {
		c.Label[i] = float64(i % 3)
	}
	return c
}

// goldenLive is the live set the live-column passes run against: the four
// originals plus one generated product.
var (
	goldenNodes = []shard.NodeSpec{{Name: "(f0 * f1)", Inputs: []string{"f0", "f1"}, Op: "mul"}}
	goldenLive  = []string{"f0", "f1", "f2", "f3", "(f0 * f1)"}
)

type goldenCase struct {
	name string
	task core.Task
	spec *shard.PassSpec
}

// goldenCases returns one pass spec per PassKind (criterion histograms once
// per count-valued task family), each exercising base and generated
// columns where the kind has both.
func goldenCases() []goldenCase {
	combos := []shard.ComboSpec{
		{Features: []int{0, 1}, Values: [][]float64{{0.1}, {-0.5, 0.4}}},
		{Features: []int{2}, Values: [][]float64{{}}}, // one cell: zero width
		{Features: []int{4, 3}, Values: [][]float64{{-0.2, 0.3}, {0}}},
	}
	gens := []shard.GenSpec{{Op: "add", Feats: []int{0, 2}}, {Op: "div", Feats: []int{1, 4}}}
	entries := []shard.EntrySpec{
		{Base: 1, Cuts: []float64{-1, 0, 1}, NeedCodes: true},
		{Base: -1, Gen: gens[0], Cuts: []float64{-0.5, 0.5}},
		{Base: -1, Gen: gens[1], Cuts: []float64{-2, 0, 2}, NeedCodes: true},
		{Base: 4, Cuts: []float64{0}},
	}
	refines := []shard.RefineSpec{
		{Col: 2, Ranks: []int64{10, 40, 70}, Lo: []float64{-2, -0.5, 1}, Hi: []float64{-1, 0.5, 2}, Resolved: []bool{false, false, true}},
		{Col: -1, Gen: gens[1], Ranks: []int64{5, 50}, Lo: []float64{-3, 0}, Hi: []float64{-1, 0.25}, Resolved: []bool{false, false}},
	}
	liveCuts := [][]float64{{0}, {-1, 1}, {-2, 0, 2}, {}, {-0.5, 0, 0.5}}
	bin, multi, reg := core.BinaryTask(), core.MulticlassTask(3), core.RegressionTask()
	return []goldenCase{
		{"base-sketch", bin, &shard.PassSpec{Kind: shard.PassBaseSketch}},
		{"codes", bin, &shard.PassSpec{Kind: shard.PassCodes, LiveCuts: liveCuts}},
		{"score-binary", bin, &shard.PassSpec{Kind: shard.PassScoreBinary, Combos: combos}},
		{"score-classes", multi, &shard.PassSpec{Kind: shard.PassScoreClasses, Classes: 3, Combos: combos}},
		{"score-moment-ids", reg, &shard.PassSpec{Kind: shard.PassScoreMomentIDs, Combos: combos}},
		{"sketch-gen", bin, &shard.PassSpec{Kind: shard.PassSketchGen, Gens: gens}},
		{"refine", bin, &shard.PassSpec{Kind: shard.PassRefine, Refines: refines}},
		{"hist-counts-binary", bin, &shard.PassSpec{Kind: shard.PassHistCounts, Entries: entries}},
		{"hist-counts-multiclass", multi, &shard.PassSpec{Kind: shard.PassHistCounts, Entries: entries}},
		{"hist-ids", reg, &shard.PassSpec{Kind: shard.PassHistIDs, Entries: entries}},
		{"gram-codes", bin, &shard.PassSpec{Kind: shard.PassGramCodes, Entries: entries}},
	}
}

// goldenFrame computes one golden case's partial frame through the worker
// kernel and the wire encoder.
func goldenFrame(t *testing.T, gc goldenCase) []byte {
	t.Helper()
	ws := shard.NewWorkerState(goldenNames, gc.task, 16)
	if err := ws.SetLive(1, goldenNodes, goldenLive); err != nil {
		t.Fatal(err)
	}
	spec := *gc.spec
	spec.Pass, spec.Epoch = int(gc.spec.Kind), 1
	p, err := ws.ComputePartial(&spec, goldenChunk())
	if err != nil {
		t.Fatalf("%s: %v", gc.name, err)
	}
	return encodePartial(spec.Pass, p)
}

// goldenPath names a golden case's partial-frame file.
func goldenPath(gc goldenCase) string {
	return filepath.Join("testdata", "partial-"+gc.name+".bin")
}

// TestPartialFramesMatchGolden pins the partial frame bytes of every pass
// kind to the files under testdata/: the frame layout is part of the
// SAFEdst1 v1 protocol (and frame classifiers key on it), so the kernels
// and the encoder must reproduce them exactly. Run with -update to
// regenerate after an intentional protocol change (and bump Version).
func TestPartialFramesMatchGolden(t *testing.T) {
	for _, gc := range goldenCases() {
		got := goldenFrame(t, gc)
		path := goldenPath(gc)
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: partial frame drifted from %s (%d bytes, want %d)", gc.name, path, len(got), len(want))
		}
	}
}

// corruptConn wraps a coordinator-side connection and flips the family tag
// of the first sketch payload in the first partial frame after pass 1: a
// well-formed, CRC-valid frame from a live worker carrying a malformed
// sketch.
type corruptConn struct {
	Conn
	done bool
}

func (c *corruptConn) Recv() ([]byte, error) {
	msg, err := c.Conn.Recv()
	if err != nil || c.done || msgType(msg) != msgPartial || binary.LittleEndian.Uint64(msg[1:]) < 2 {
		return msg, err
	}
	off := 1 + 4*8 // type, pass id, chunk, start, rows
	off += 4 + 8*int(binary.LittleEndian.Uint32(msg[off:]))
	if binary.LittleEndian.Uint32(msg[off:]) == 0 {
		return msg, nil // no sketch payloads in this pass kind
	}
	msg[off+4+4] = 0xEE // the first blob's family tag, past count and length
	c.done = true
	return msg, nil
}

// TestDistributedFitMalformedSketchAborts: a worker that delivers a
// well-formed frame with an undecodable sketch payload computed garbage —
// the fit must abort with the decode error, not treat the worker as lost
// and reassign its partitions to a survivor.
func TestDistributedFitMalformedSketchAborts(t *testing.T) {
	const rows, dim, parts = 2000, 8, 4
	tc := taskCases()[0]
	train := taskWorkload(t, rows, dim, tc)
	cfg := core.DefaultConfig()
	cfg.Task = tc.task
	cfg.Seed = 1
	spec := writeSource(t, train, SourceColstore, rows/parts)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fl := pipeFleet(t, ctx, 2)
	bad := &corruptConn{Conn: fl.conns[1]}
	fl.conns[1] = bad
	coord := NewCoordinator(spec, fl.conns...)
	_, _, _, err := shard.Fit(ctx, openLocal(t, spec), shard.Config{Core: cfg, Exec: coord})
	workers := coord.Workers()
	coord.Close()
	cancel()
	fl.wait()
	if !bad.done {
		t.Fatal("no partial frame was corrupted")
	}
	var de *sketch.DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("fit with a malformed sketch payload returned %v, want a sketch decode error", err)
	}
	if workers != 2 {
		t.Fatalf("%d workers alive after the malformed partial, want 2 (no reassignment)", workers)
	}
}
