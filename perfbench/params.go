package main

import "time"

// Fixed benchmark parameters. Both commits of a comparison build this file
// from their own tree, so a comparison is only fair while these constants
// are unchanged; change them only in a change that redefines the benchmark.

// Fit workloads: one generated table per seed, fitted by every engine.
const (
	fitRows       = 100_000
	fitDim        = 50
	fitTestRows   = 256 // the generator requires a test split; unused
	fitPartitions = 4   // colstore row groups = sharded partitions
	fitConfigSeed = 1   // core.Config.Seed, as the legacy BENCH_fit.json cells
)

// defaultSeed is the workload seed whose selection fingerprint is recorded
// below; seed 11 generates the same table as the legacy fit-100k-50 cells.
const defaultSeed = 11

// defaultFingerprint is the selection fingerprint (see fingerprint) of the
// 100k×50 table at defaultSeed. Every run fits its table in memory first;
// every measured fit must reproduce that fingerprint, and at defaultSeed it
// must also equal this one.
const defaultFingerprint = "6c76e0585034477a"

// setupRepeats is how many times a run performs its set-up; setup_s is the
// median.
const setupRepeats = 3

// Serve workload. Cold rows never repeat within serveBodies requests, and
// the LRU cache holds far fewer than serveBodies×(serveBatch−serveHotRows)
// rows, so every cold row misses; a hot row misses only on the first
// request after a swap.
const (
	serveTrainRows = 4000
	serveDim       = 12
	serveBatch     = 128 // rows per /predict request
	serveHotRows   = 64  // rows per request drawn from the fixed hot pool
	serveHotPool   = 64  // size of the hot pool
	serveBodies    = 512 // distinct request bodies, cycled in order
	serveCacheRows = 4096
	serveTrees     = 30
	serveSwapEvery = time.Second
)

// serveLadder is the fixed open-loop rate ladder in requests per second,
// chosen once from the seed commit's measured capacity so that both
// commits of a comparison receive the same offered load. The top rungs
// lie past the seed's capacity, so the seed fails them.
var serveLadder = []float64{300, 600, 800, 900, 1000, 1075, 1150, 1225, 1300, 1400, 1500, 1650}

// serveRefRung indexes serveLadder: the rate at which serve latency is
// reported. In the ladder it runs serveRefShare times as long as the other
// rungs, so its tail quantile has about 2000 samples at --seconds 30.
const (
	serveRefRung  = 0
	serveRefShare = 3
)

// serveP99Limit is the fixed latency limit a rung's p99 must meet.
const serveP99Limit = 50 * time.Millisecond
