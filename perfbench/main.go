// Command perfbench is this repository's benchmark. It generates every
// input from --seed, runs one workload for --seconds, checks the outputs,
// and prints one JSON result line: the end-to-end metrics with --trace 0,
// the per-layer metrics (from a traced run) with --trace 1. See README.md
// for the workloads, the metrics and the layer map.
//
//	bash perfbench/run.sh --workload fit-colstore-100k --seed 11 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg runConfig) (*result, error){
	"fit-colstore-100k":  func(c runConfig) (*result, error) { return runFit(engineColstore, c) },
	"fit-dist-tcp-100k":  func(c runConfig) (*result, error) { return runFit(engineDist, c) },
	"serve-predict-swap": runServe,
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	nproc    int
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail counts one failed operation and logs why.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	logf("FAIL: "+format, args...)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "input-generation seed")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "length of the measured region")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", ".bench_build/run", "directory for generated files and span dumps")
	flag.Parse()
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		logf("usage: --workload %v --seed N --seconds S --trace 0|1", names)
		os.Exit(2)
	}
	cfg.trace = trace == 1
	cfg.nproc = runtime.NumCPU()
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	logf("workload=%s seed=%d seconds=%g trace=%v GOMAXPROCS=%d nproc=%d",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), cfg.nproc)
	res, err := run(cfg)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	if res.Attempted < 1 {
		logf("no operation ran")
		os.Exit(1)
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// median returns the middle value (mean of the two middle ones).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a ÷ b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
