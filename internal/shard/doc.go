// Package shard is the sharded, out-of-core fit engine: it runs the SAFE
// algorithm over a frame.ChunkSource whose partitions never coexist in
// memory, by replacing every full-column statistic of the in-memory path
// with a mergeable sketch (internal/sketch) accumulated per partition and
// merged by the coordinator.
//
// The engine makes a small number of streaming passes, one PassKind each:
//
//   - PassBaseSketch     — labels + per-feature quantile sketches and
//     moments (once, before the first round)
//   - PassRefine         — exact-cut gathers inside the sketches' rank
//     brackets (live features once, generated candidates per round;
//     skipped in approx mode or when no bracket is open)
//   - PassCodes          — bin the live features into resident uint8 codes
//   - PassScoreBinary, PassScoreClasses, PassScoreMomentIDs — per-combination
//     contingency tables: binary counts, K-class counts, or regression
//     cell ids replayed against the targets in row order
//   - PassSketchGen      — quantile sketches + moments of generated columns
//   - PassHistCounts, PassHistIDs — criterion histograms of every candidate
//     (binary/multiclass label counts, or regression bin ids)
//   - PassGramCodes      — pairwise co-moments (Gram) of IV survivors +
//     their resident ranker codes
//
// Each pass has one kernel (WorkerState, dispatch.go) and one fold
// (passes.go), connected by an Executor: the in-process one (runner.go)
// unless Config.Exec names another, such as internal/dist's coordinator.
//
// Everything the XGBoost miner and ranker consume is the resident binned
// matrix (1 byte per value, ~8× smaller than raw float64 columns) plus the
// labels — histogram GBDT training never touches raw values, and
// gbdt.TrainBinned is bit-identical to gbdt.Train given equal bins. Combo
// gain ratios, IV and Pearson decisions are reproduced from merged counts
// and co-moments through the same exported core logic the in-memory path
// runs, so the only divergence from core.Fit is quantile-sketch cut
// placement, bounded by sketch.Quantile.ErrorBound. See docs/sharding.md
// for the error model and when to prefer each path.
package shard
