package shard

import (
	"repro/internal/frame"
	"repro/internal/sketch"
)

// planSkip plans a partial refinement pass from the source's per-block
// statistics, when it has any (frame.SkippableSource — the colstore
// readers). A chunk is skippable only when every gathered column's block
// proves, via Refiner.SkipBucket, that all its non-NaN values land in one
// below-bracket bucket and touch no gather bracket; the chunk's entire
// effect on each refiner is then the exact integer fold
// AddOutside(bucket, rows−NaNs), so the partial pass resolves the same
// order statistics bit-for-bit as a full one.
//
// The skipped chunks' contribution comes back as one Partial synthesized
// from the statistics, to fold ahead of the streamed chunks (the gather fold
// is order-invariant: skipped chunks add only integer counts). The plan is
// installed on the source (SetSkip) and accounted in res; the returned
// cleanup restores full passes and must run once the pass is done. done
// reports that every chunk was skippable — the synthesized partial resolves
// the pass and nothing need stream. A nil partial means nothing skips.
func (e *localExec) planSkip(pg *passProgram, res *PassResult) (skipped *Partial, cleanup func(), done bool) {
	ss, ok := e.base.(frame.SkippableSource)
	if !ok || len(pg.refs) == 0 {
		return nil, nil, false
	}
	nch := ss.NumChunks()
	if nch <= 0 {
		return nil, nil, false
	}
	type contrib struct {
		target int
		bucket int
		n      int64
	}
	skip := make([]bool, nch)
	var contribs []contrib
	scratch := make([]contrib, 0, len(pg.refs))
	for ci := 0; ci < nch; ci++ {
		st := ss.ChunkStats(ci)
		if len(st) == 0 {
			continue // no stats for this chunk: it must stream
		}
		scratch = scratch[:0]
		skippable := true
		for t, ref := range pg.refs {
			s := st[pg.cols[t].base]
			nn := int64(s.Rows - s.NaNs)
			if nn == 0 {
				continue // all missing: contributes nothing either way
			}
			if !s.Known {
				skippable = false
				break
			}
			bucket, ok := ref.SkipBucket(s.Min, s.Max)
			if !ok {
				skippable = false
				break
			}
			scratch = append(scratch, contrib{target: t, bucket: bucket, n: nn})
		}
		if !skippable {
			continue
		}
		skip[ci] = true
		res.BlocksSkipped++
		res.RowsSkipped += st[0].Rows
		contribs = append(contribs, scratch...)
	}
	if res.BlocksSkipped == 0 {
		return nil, nil, false
	}
	res.Parts += res.BlocksSkipped
	skipped = &Partial{Chunk: -1, Gathers: make([]*sketch.Refiner, len(pg.refs))}
	for t, ref := range pg.refs {
		skipped.Gathers[t] = ref.Shadow()
	}
	for _, c := range contribs {
		skipped.Gathers[c.target].AddOutside(c.bucket, c.n)
	}
	if res.BlocksSkipped == nch {
		return skipped, nil, true
	}
	ss.SetSkip(skip)
	return skipped, func() {
		// An aborted pass can leave the prefetcher's reader mid-stream on the
		// base source; stop it (restartable via Reset) before changing the
		// plan under it.
		if e.pf != nil {
			e.pf.Close()
		}
		ss.SetSkip(nil)
	}, false
}
