package shard

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/operators"
	"repro/internal/sketch"
	"repro/internal/stats"
)

// This file is the coordinator side of every streaming pass: each pass
// method reifies the pass into a PassSpec, runs it through the fit's
// Executor, and folds the returned Partials. RunPass delivers partials in
// ascending partition order and never concurrently, so the merged
// statistics accumulate in the same sequence for every executor and worker
// count — selection stays bit-identical to the in-memory engine.
//
// Every fold bounds-checks the partial before indexing: a worker that
// speaks the right protocol but computes the wrong shape aborts the fit
// with an error instead of corrupting statistics.

// runPass executes one pass through the executor, threading the pass
// ordinal and the live epoch, and folds the pass's bookkeeping into the fit
// statistics.
func (f *fitter) runPass(spec *PassSpec, fold func(*Partial) error) error {
	f.stats.Passes++
	spec.Pass = f.stats.Passes
	spec.Epoch = f.liveEpoch
	res, err := f.exec.RunPass(f.ctx, spec, fold)
	if err != nil {
		return err
	}
	return f.finishPass(res)
}

// finishPass folds one completed pass into the fit statistics, validating
// that the source yields a stable shape across passes (skipped rows count
// toward the shape, not toward RowsStreamed).
func (f *fitter) finishPass(res PassResult) error {
	f.stats.RowsStreamed += int64(res.Rows)
	f.stats.Retries += res.Retries
	f.stats.BlocksSkipped += int64(res.BlocksSkipped)
	f.stats.RowsSkipped += int64(res.RowsSkipped)
	rows := res.Rows + res.RowsSkipped
	if f.n == 0 {
		f.n, f.stats.Rows, f.stats.Partitions = rows, rows, res.Parts
		return nil
	}
	if rows != f.n {
		return fmt.Errorf("shard: source yielded %d rows on a later pass, want %d (unstable source)", rows, f.n)
	}
	return nil
}

// checkPartial validates that a partial's row span lies inside the
// gathered label span, for folds that index per-row state.
func (f *fitter) checkPartial(p *Partial, what string) error {
	if p.Rows < 0 || p.Start < 0 || p.Start+p.Rows > f.n {
		return fmt.Errorf("shard: %s partial %d spans rows [%d,%d) of %d", what, p.Chunk, p.Start, p.Start+p.Rows, f.n)
	}
	return nil
}

// neededNodes selects, from every node generated so far, the dependency-
// ordered subset the current live set needs — the node program the kernel
// replays per chunk.
func (f *fitter) neededNodes() []core.FeatureNode {
	needed := make(map[string]bool, len(f.live))
	for _, lf := range f.live {
		if lf.node != nil {
			needed[lf.name] = true
		}
	}
	keep := make([]bool, len(f.nodes))
	for i := len(f.nodes) - 1; i >= 0; i-- {
		if needed[f.nodes[i].Name] {
			keep[i] = true
			for _, dep := range f.nodes[i].Inputs {
				needed[dep] = true
			}
		}
	}
	var out []core.FeatureNode
	for i := range f.nodes {
		if keep[i] {
			out = append(out, f.nodes[i])
		}
	}
	return out
}

// syncLive pushes the current live set to the executor as a new epoch: the
// dependency-ordered node program (by operator registry name) plus the live
// feature names.
func (f *fitter) syncLive() error {
	nodes := f.neededNodes()
	specs := make([]NodeSpec, len(nodes))
	for i := range nodes {
		op, ok := operators.ApplierOp(nodes[i].Applier)
		if !ok {
			return fmt.Errorf("shard: node %q has a non-registry applier", nodes[i].Name)
		}
		specs[i] = NodeSpec{Name: nodes[i].Name, Inputs: nodes[i].Inputs, Op: op}
	}
	live := make([]string, len(f.live))
	for i, lf := range f.live {
		live[i] = lf.name
	}
	f.liveEpoch++
	return f.exec.SetLive(f.ctx, f.liveEpoch, specs, live)
}

// genSpec reifies one generated candidate for kernel-side recomputation.
func genSpec(en *candidate) (GenSpec, error) {
	op, ok := operators.ApplierOp(en.applier)
	if !ok {
		return GenSpec{}, fmt.Errorf("shard: candidate %q has a non-registry applier", en.name)
	}
	return GenSpec{Op: op, Feats: en.feats}, nil
}

// entrySpecs reifies a candidate set for the histogram/Gram passes; cuts
// selects the per-entry bin edges to ship.
func entrySpecs(entries []*candidate, cuts func(*candidate) []float64) ([]EntrySpec, error) {
	out := make([]EntrySpec, len(entries))
	for i, en := range entries {
		if en.isBase {
			out[i] = EntrySpec{Base: en.baseIdx, Cuts: cuts(en)}
			continue
		}
		g, err := genSpec(en)
		if err != nil {
			return nil, err
		}
		out[i] = EntrySpec{Base: -1, Gen: g, Cuts: cuts(en)}
	}
	return out, nil
}

// passBaseSketch is pass 1: labels plus per-feature quantile sketches and
// moments, merged in partition order — exactly the sequence the sequential
// engine accumulated in.
func (f *fitter) passBaseSketch() error {
	m := len(f.names)
	return f.runPass(&PassSpec{Kind: PassBaseSketch}, func(p *Partial) error {
		if len(p.Labels) != p.Rows {
			return fmt.Errorf("shard: base-sketch partial %d carries %d labels for %d rows", p.Chunk, len(p.Labels), p.Rows)
		}
		if len(p.Sketches) != m || len(p.Moments) != m {
			return fmt.Errorf("shard: base-sketch partial %d has %d sketches and %d moments, want %d", p.Chunk, len(p.Sketches), len(p.Moments), m)
		}
		f.labels = append(f.labels, p.Labels...)
		for j := 0; j < m; j++ {
			f.live[j].sk.Merge(p.Sketches[j])
			f.live[j].mom.Merge(&p.Moments[j])
		}
		return nil
	})
}

// passLiveCodes streams one pass building the resident miner codes of the
// given live features from their miner cuts. Codes land in disjoint row
// ranges, so placement alone (not fold order) determines the result.
func (f *fitter) passLiveCodes(live []*liveFeat) error {
	spec := &PassSpec{Kind: PassCodes, LiveCuts: make([][]float64, len(live))}
	for i := range live {
		spec.LiveCuts[i] = live[i].minerCuts
	}
	return f.runPass(spec, func(p *Partial) error {
		if err := f.checkPartial(p, "codes"); err != nil {
			return err
		}
		if len(p.Codes) != len(live) {
			return fmt.Errorf("shard: codes partial %d has %d columns, want %d", p.Chunk, len(p.Codes), len(live))
		}
		for i := range live {
			if len(p.Codes[i]) != p.Rows {
				return fmt.Errorf("shard: codes partial %d col %d has %d rows, want %d", p.Chunk, i, len(p.Codes[i]), p.Rows)
			}
			copy(live[i].codes[p.Start:p.Start+p.Rows], p.Codes[i])
		}
		return nil
	})
}

// scoreCombos fills every combination's gain ratio from contingency
// statistics accumulated over one streaming pass, dispatching on the task:
// binary positive/total counts, K-class cell counts, or per-cell target
// moments. For the count-valued families the fold is exact integer
// addition, so the scores match the in-memory scorer bit-for-bit given the
// same mined combinations. Float moment sums are order-sensitive, so for
// regression the kernel computes only each row's cell id and the fold
// accumulates targets into the per-cell moments in global row order — the
// exact float addition sequence of the in-memory stats.VarGainRatio.
func (f *fitter) scoreCombos(combos []core.Combo) error {
	if len(combos) == 0 {
		return nil
	}
	spec := &PassSpec{Kind: PassScoreBinary, Combos: make([]ComboSpec, len(combos))}
	for i := range combos {
		spec.Combos[i] = ComboSpec{Features: combos[i].Features, Values: combos[i].Values}
	}
	k, mult := f.cfg.Task.Classes, 1
	switch f.cfg.Task.Kind {
	case core.TaskMulticlass:
		spec.Kind, spec.Classes, mult = PassScoreClasses, k, k
	case core.TaskRegression:
		spec.Kind = PassScoreMomentIDs
	}
	cells, off, err := comboLayout(spec.Combos, mult, len(f.live))
	if err != nil {
		return err
	}
	total := off[len(combos)]
	var fold func(*Partial) error
	var score func(i int) float64
	switch spec.Kind {
	case PassScoreBinary:
		pos, tot := make([]int, total), make([]int, total)
		fold = func(p *Partial) error {
			if len(p.Ints) != 2*total {
				return fmt.Errorf("shard: score partial %d has %d counts, want %d", p.Chunk, len(p.Ints), 2*total)
			}
			for g := 0; g < total; g++ {
				pos[g] += int(p.Ints[g])
				tot[g] += int(p.Ints[total+g])
			}
			return nil
		}
		score = func(i int) float64 {
			return stats.GainRatioFromCounts(pos[off[i]:off[i+1]], tot[off[i]:off[i+1]])
		}
	case PassScoreClasses:
		cnt := make([]float64, total)
		fold = func(p *Partial) error {
			if len(p.Ints) != total {
				return fmt.Errorf("shard: class-score partial %d has %d counts, want %d", p.Chunk, len(p.Ints), total)
			}
			for g := 0; g < total; g++ {
				cnt[g] += float64(p.Ints[g])
			}
			return nil
		}
		score = func(i int) float64 {
			return stats.GainRatioFromClassCounts(cnt[off[i]:off[i+1]], cells[i].NumCells(), k)
		}
	default:
		cnt, sum, sumsq := make([][]float64, len(combos)), make([][]float64, len(combos)), make([][]float64, len(combos))
		active := 0
		for i := range combos {
			if nc := off[i+1] - off[i]; nc > 0 {
				cnt[i], sum[i], sumsq[i] = make([]float64, nc), make([]float64, nc), make([]float64, nc)
				active++
			}
		}
		fold = func(p *Partial) error {
			if err := f.checkPartial(p, "moment-score"); err != nil {
				return err
			}
			if len(p.Ints) != active*p.Rows {
				return fmt.Errorf("shard: moment-score partial %d has %d ids, want %d", p.Chunk, len(p.Ints), active*p.Rows)
			}
			labels := f.labels[p.Start : p.Start+p.Rows]
			ids := p.Ints
			for ci := range combos {
				if cnt[ci] == nil {
					continue
				}
				ccnt, csum, csumsq := cnt[ci], sum[ci], sumsq[ci]
				for r, id := range ids[:p.Rows] {
					if id < 0 || int(id) >= len(ccnt) {
						return fmt.Errorf("shard: moment-score partial %d cell id %d outside %d cells", p.Chunk, id, len(ccnt))
					}
					y := labels[r]
					ccnt[id]++
					csum[id] += y
					csumsq[id] += y * y
				}
				ids = ids[p.Rows:]
			}
			return nil
		}
		score = func(i int) float64 { return stats.VarGainRatioFromMoments(cnt[i], sum[i], sumsq[i]) }
	}
	if err := f.runPass(spec, fold); err != nil {
		return err
	}
	for i := range combos {
		combos[i].GainRatio = 0
		if off[i+1] > off[i] {
			combos[i].GainRatio = score(i)
		}
	}
	return nil
}

// passCandidateSketches streams one pass sketching every generated
// candidate column (quantile summary + moments), merging the partials into
// each candidate's running sketch in partition order.
func (f *fitter) passCandidateSketches(entries []*candidate) error {
	var gen []*candidate
	spec := &PassSpec{Kind: PassSketchGen}
	for _, en := range entries {
		if en.isBase {
			continue
		}
		g, err := genSpec(en)
		if err != nil {
			return err
		}
		gen = append(gen, en)
		spec.Gens = append(spec.Gens, g)
	}
	if len(gen) == 0 {
		return nil
	}
	return f.runPass(spec, func(p *Partial) error {
		if len(p.Sketches) != len(gen) || len(p.Moments) != len(gen) {
			return fmt.Errorf("shard: gen-sketch partial %d has %d sketches and %d moments, want %d", p.Chunk, len(p.Sketches), len(p.Moments), len(gen))
		}
		for i, en := range gen {
			en.sk.Merge(p.Sketches[i])
			en.mom.Merge(&p.Moments[i])
		}
		return nil
	})
}

// cutRankUnion merges the nearest-rank targets of every bin count the fit
// will cut a column at (miner bins, IV bins, ranker bins), so one refiner
// per column serves all cut consumers. n is the column's own non-NaN count
// — the population quantile ranks are defined over — which differs per
// column when values are missing.
func cutRankUnion(n int64, cfg *core.Config) []int64 {
	merged := sketch.CutRanks(n, cfg.Miner.MaxBins)
	for _, bins := range []int{cfg.IVBins, cfg.Ranker.MaxBins} {
		extra := sketch.CutRanks(n, bins)
		out := make([]int64, 0, len(merged)+len(extra))
		i, j := 0, 0
		for i < len(merged) || j < len(extra) {
			switch {
			case i == len(merged):
				out = append(out, extra[j])
				j++
			case j == len(extra):
				out = append(out, merged[i])
				i++
			case merged[i] < extra[j]:
				out = append(out, merged[i])
				i++
			case merged[i] > extra[j]:
				out = append(out, extra[j])
				j++
			default:
				out = append(out, merged[i])
				i++
				j++
			}
		}
		merged = out
	}
	return merged
}

// refineLive brackets the live sketches' cut targets and, when any bracket
// is still open, streams one gather pass over the raw source columns to
// resolve them exactly. Approx mode skips refinement entirely (cuts then
// come straight off the sketches). refineLive runs before any feature
// generation, so the spec addresses columns by schema index — which lets
// the in-process executor skip blocks its statistics prove irrelevant.
func (f *fitter) refineLive() error {
	if f.approxCuts {
		return nil
	}
	spec := &PassSpec{Kind: PassRefine}
	var refs []*sketch.Refiner
	for j, lf := range f.live {
		lf.ref = sketch.NewRefiner(lf.sk, cutRankUnion(lf.sk.Count(), &f.cfg))
		lf.sk.TrimScratch() // merge phase over; the refiner carries the pass
		if lf.ref.NeedsPass() {
			spec.Refines = append(spec.Refines, RefineSpec{Col: j})
			refs = append(refs, lf.ref)
		}
	}
	return f.refine(spec, refs)
}

// refineCandidates is refineLive for the round's generated candidates,
// recomputing each candidate column per chunk to gather its open brackets.
func (f *fitter) refineCandidates(entries []*candidate) error {
	if f.approxCuts {
		return nil
	}
	spec := &PassSpec{Kind: PassRefine}
	var refs []*sketch.Refiner
	for _, en := range entries {
		if en.isBase {
			continue // base refiners carry over from the live set
		}
		en.ref = sketch.NewRefiner(en.sk, cutRankUnion(en.sk.Count(), &f.cfg))
		en.sk.TrimScratch() // merge phase over; the refiner carries the pass
		if en.ref.NeedsPass() {
			g, err := genSpec(en)
			if err != nil {
				return err
			}
			spec.Refines = append(spec.Refines, RefineSpec{Col: -1, Gen: g})
			refs = append(refs, en.ref)
		}
	}
	return f.refine(spec, refs)
}

// refine runs one gather pass for the open refiners, when there are any:
// refs[i] merges the gather partials of spec.Refines[i] in partition order
// (order-invariant counts; gathered values are sorted at finalize).
func (f *fitter) refine(spec *PassSpec, refs []*sketch.Refiner) error {
	if len(refs) == 0 {
		return nil
	}
	for i, ref := range refs {
		rf := &spec.Refines[i]
		rf.Ranks, rf.Lo, rf.Hi, rf.Resolved = ref.Brackets()
	}
	return f.runPass(spec, func(p *Partial) error {
		if len(p.Gathers) != len(refs) {
			return fmt.Errorf("shard: refine partial %d has %d gathers, want %d", p.Chunk, len(p.Gathers), len(refs))
		}
		for i, ref := range refs {
			if err := ref.MergeWire(p.Gathers[i]); err != nil {
				return fmt.Errorf("shard: refine partial %d target %d: %w", p.Chunk, i, err)
			}
		}
		return nil
	})
}

// newCriterionHist builds the task's mergeable relevance accumulator over
// the given cut points: binary label counts, K-class counts, or target
// moments.
func (f *fitter) newCriterionHist(cuts []float64) sketch.CriterionHist {
	switch f.cfg.Task.Kind {
	case core.TaskMulticlass:
		return sketch.NewClassHist(cuts, f.cfg.Task.Classes)
	case core.TaskRegression:
		return sketch.NewMomentHist(cuts)
	default:
		return sketch.NewLabelHist(cuts)
	}
}

// passCandidateCounts streams one pass accumulating every candidate's
// binned criterion histogram, from which the task's relevance criterion
// (IV, multiclass IV, or η²) follows. The count-valued families (binary,
// multiclass) merge per-partition histogram partials exactly in partition
// order; the regression moment histogram takes per-row bin ids from the
// kernel and replays the target sums in global row order, keeping the
// float arithmetic bit-identical to the in-memory single-pass accumulation.
func (f *fitter) passCandidateCounts(entries []*candidate) error {
	for _, en := range entries {
		en.hist = f.newCriterionHist(en.ivCuts)
	}
	specs, err := entrySpecs(entries, func(en *candidate) []float64 { return en.ivCuts })
	if err != nil {
		return err
	}
	if f.cfg.Task.Kind == core.TaskRegression {
		return f.runPass(&PassSpec{Kind: PassHistIDs, Entries: specs}, func(p *Partial) error {
			if err := f.checkPartial(p, "hist-id"); err != nil {
				return err
			}
			if len(p.Ints) != len(entries)*p.Rows {
				return fmt.Errorf("shard: hist-id partial %d has %d ids, want %d", p.Chunk, len(p.Ints), len(entries)*p.Rows)
			}
			targets := f.labels[p.Start : p.Start+p.Rows]
			for i, en := range entries {
				ids := p.Ints[i*p.Rows : (i+1)*p.Rows]
				for _, id := range ids {
					if id < -1 || int(id) > len(en.ivCuts) {
						return fmt.Errorf("shard: hist-id partial %d bin id %d outside %d bins", p.Chunk, id, len(en.ivCuts)+1)
					}
				}
				en.hist.(*sketch.MomentHist).AddBinned(ids, targets)
			}
			return nil
		})
	}
	return f.runPass(&PassSpec{Kind: PassHistCounts, Entries: specs}, func(p *Partial) error {
		if len(p.Hists) != len(entries) {
			return fmt.Errorf("shard: hist partial %d has %d histograms, want %d", p.Chunk, len(p.Hists), len(entries))
		}
		for i, en := range entries {
			// MergeHist's type and cut-equality checks double as an
			// integrity check on the partial.
			if err := en.hist.MergeHist(p.Hists[i]); err != nil {
				return fmt.Errorf("shard: hist partial %d cand %d: %w", p.Chunk, i, err)
			}
		}
		return nil
	})
}

// passGramAndCodes streams one pass over the IV survivors, accumulating the
// pairwise co-moment Gram matrix (per-partition partials merged by addition
// in partition order — the identical float sums of the sequential pass,
// since each chunk's dot products add once either way) and materialising
// resident ranker codes for survivors that do not already alias live codes.
func (f *fitter) passGramAndCodes(entries []*candidate, keptA []int) error {
	kept := make([]*candidate, len(keptA))
	for gi, idx := range keptA {
		kept[gi] = entries[idx]
	}
	specs, err := entrySpecs(kept, func(en *candidate) []float64 { return en.rgCuts })
	if err != nil {
		return err
	}
	for gi, en := range kept {
		if en.codes == nil {
			en.codes = make([]uint8, f.n)
			specs[gi].NeedCodes = true
		}
	}
	f.gram = sketch.NewGram(len(kept))
	return f.runPass(&PassSpec{Kind: PassGramCodes, Entries: specs}, func(p *Partial) error {
		if err := f.checkPartial(p, "gram"); err != nil {
			return err
		}
		if p.Gram == nil || p.Gram.K() != len(kept) || len(p.Codes) != len(kept) {
			return fmt.Errorf("shard: gram partial %d does not cover the %d survivors", p.Chunk, len(kept))
		}
		f.gram.Merge(p.Gram)
		for gi, en := range kept {
			if !specs[gi].NeedCodes {
				continue
			}
			if len(p.Codes[gi]) != p.Rows {
				return fmt.Errorf("shard: gram partial %d codes %d has %d rows, want %d", p.Chunk, gi, len(p.Codes[gi]), p.Rows)
			}
			copy(en.codes[p.Start:p.Start+p.Rows], p.Codes[gi])
		}
		return nil
	})
}

// sortByIVDesc orders candidate indices by IV descending, ties by index
// ascending — the scan order of core's pearsonDedup.
func sortByIVDesc(order []int, ivs []float64) {
	sort.Slice(order, func(a, b int) bool {
		if ivs[order[a]] != ivs[order[b]] {
			return ivs[order[a]] > ivs[order[b]]
		}
		return order[a] < order[b]
	})
}

func sortInts(xs []int) { sort.Ints(xs) }
