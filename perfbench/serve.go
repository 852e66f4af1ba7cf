package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/frame"
	"repro/internal/gbdt"
	"repro/internal/serve"
)

// serveVersions are the two registered versions of the served pipeline
// and the operator sets their SAFE fits use.
var serveVersions = []struct {
	name string
	ops  []string
}{
	{"v1", []string{"add", "sub", "mul", "div"}},
	{"v2", []string{"add", "sub", "mul", "div", "zscore", "groupby_avg"}},
}

const servePipeline = "risk"

// serveEnv is the serve workload after set-up: both versions trained and
// registered, the server listening on loopback, and the request bodies
// encoded with their offline reference scores.
type serveEnv struct {
	train  *frame.Frame
	pipes  map[string]*core.Pipeline
	models map[string]*gbdt.Model
	srv    *httptest.Server
	rows   [][][]float64          // per body, the request rows
	bodies [][]byte               // encoded /predict requests
	ref    map[string][][]float64 // per version, per body: the expected scores
}

// setupServe trains both versions on a generated table, registers them,
// starts the server, and encodes serveBodies request bodies. Each body
// interleaves serveHotRows rows drawn from a fixed hot pool with rows no
// other body carries, so about half the rows of every request repeat. The
// tables have the planted structure of defaultSeed, so both versions are
// the same models for every seed; the seed shuffles the request rows and
// picks the hot rows of each body.
func setupServe(seed int64, nproc int) (*serveEnv, error) {
	cold := serveBatch - serveHotRows
	ds, err := datagen.Generate(datagen.Spec{
		Name: "perfbench-serve", Train: serveTrainRows, Test: serveHotPool + serveBodies*cold,
		Dim: serveDim, Interactions: 4, SignalScale: 2.5, Seed: defaultSeed,
	})
	if err != nil {
		return nil, err
	}
	env := &serveEnv{train: ds.Train, pipes: map[string]*core.Pipeline{},
		models: map[string]*gbdt.Model{}, ref: map[string][][]float64{}}
	reg := serve.NewRegistry()
	for _, v := range serveVersions {
		res, err := safe.Fit(context.Background(), safe.FromFrame(ds.Train),
			safe.WithWorkers(nproc), safe.WithOperators(v.ops...))
		if err != nil {
			return nil, err
		}
		tr, err := res.Pipeline.Transform(ds.Train)
		if err != nil {
			return nil, err
		}
		mcfg := gbdt.DefaultConfig()
		mcfg.NumTrees = serveTrees
		model, err := gbdt.Train(columns(tr), tr.Label, tr.Names(), mcfg)
		if err != nil {
			return nil, err
		}
		if err := reg.Register(servePipeline, v.name, res.Pipeline, model); err != nil {
			return nil, err
		}
		env.pipes[v.name], env.models[v.name] = res.Pipeline, model
	}
	if err := reg.Activate(servePipeline, serveVersions[0].name); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(seed))
	test := ds.Test
	test.Shuffle(rng)
	env.rows = make([][][]float64, serveBodies)
	env.bodies = make([][]byte, serveBodies)
	for b := range env.rows {
		rows := make([][]float64, serveBatch)
		for i := range rows {
			if i%2 == 0 {
				rows[i] = test.Row(rng.Intn(serveHotPool), nil)
			} else {
				rows[i] = test.Row(serveHotPool+b*cold+i/2, nil)
			}
		}
		body, err := json.Marshal(serve.BatchRequest{Pipeline: servePipeline, Rows: rows})
		if err != nil {
			return nil, err
		}
		env.rows[b], env.bodies[b] = rows, body
	}
	for _, v := range serveVersions {
		refs := make([][]float64, serveBodies)
		for b, rows := range env.rows {
			if refs[b], err = env.offline(v.name, rows); err != nil {
				return nil, err
			}
		}
		env.ref[v.name] = refs
	}
	env.srv = httptest.NewServer(serve.NewServer(reg, serve.Options{CacheSize: serveCacheRows}))
	return env, nil
}

// offline scores rows the way a batch job would: TransformBatch, then
// Predict on the column-major features.
func (e *serveEnv) offline(version string, rows [][]float64) ([]float64, error) {
	feats, err := e.pipes[version].TransformBatch(rows)
	if err != nil {
		return nil, err
	}
	return e.models[version].Predict(transpose(feats)), nil
}

func (e *serveEnv) close() { e.srv.Close() }

// columns returns a frame's feature columns.
func columns(f *frame.Frame) [][]float64 {
	cols := make([][]float64, f.NumCols())
	for j := range cols {
		cols[j] = f.Columns[j].Values
	}
	return cols
}

// transpose turns row-major rows into column-major columns.
func transpose(rows [][]float64) [][]float64 {
	if len(rows) == 0 {
		return nil
	}
	cols := make([][]float64, len(rows[0]))
	for j := range cols {
		cols[j] = make([]float64, len(rows))
		for i, r := range rows {
			cols[j][i] = r[j]
		}
	}
	return cols
}

// request is one open-loop request's record.
type request struct {
	due, sent, done time.Time
	ok              bool
}

// segment is one open-loop stretch at a fixed rate.
type segment struct {
	rate       float64
	reqs       []request
	backlogEnd int // requests due but not yet sent when the schedule ended
	backlogMax int
	lags       []float64 // generator lateness per request, ms
}

// loadGen drives the server: nproc sender goroutines, one keep-alive
// connection each, pull due requests from an unbounded queue.
type loadGen struct {
	env     *serveEnv
	clients []*http.Client
	next    int // body cursor, continued across segments
	tracer  *Tracer
	fail    func(format string, args ...any)
}

func newLoadGen(env *serveEnv, nproc int, fail func(string, ...any)) *loadGen {
	g := &loadGen{env: env, fail: fail}
	for i := 0; i < nproc; i++ {
		g.clients = append(g.clients, &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		})
	}
	return g
}

func (g *loadGen) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// run offers rate requests per second for dur, then waits until every
// request has been answered.
func (g *loadGen) run(rate float64, dur time.Duration) *segment {
	n := int(rate * dur.Seconds())
	seg := &segment{rate: rate, reqs: make([]request, n), lags: make([]float64, n)}
	queue := make(chan int, n) // holds the whole schedule, so the generator never blocks
	var wg sync.WaitGroup
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for k := range queue {
				g.send(c, &seg.reqs[k], (g.next+k)%serveBodies)
			}
		}(c)
	}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(k) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		seg.reqs[k].due = due
		seg.lags[k] = float64(time.Since(due).Microseconds()) / 1e3
		queue <- k
		seg.backlogMax = max(seg.backlogMax, len(queue))
	}
	seg.backlogEnd = len(queue)
	close(queue)
	wg.Wait()
	g.next = (g.next + n) % serveBodies
	return seg
}

// closedLoop is one closed-loop stretch: every client sends its next
// request as soon as the previous one is answered.
type closedLoop struct {
	sent, answered int
	rate           float64 // answered requests per second, median over one-second windows
}

// saturate runs a closed loop for dur, rounded down to whole seconds (at
// least one), and counts the answers that arrive in each second.
func (g *loadGen) saturate(dur time.Duration) closedLoop {
	windows := max(1, int(dur/time.Second))
	counts := make([]atomic.Int64, windows)
	var next atomic.Int64
	start := time.Now()
	end := start.Add(time.Duration(windows) * time.Second)
	var wg sync.WaitGroup
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for time.Now().Before(end) {
				var r request
				g.send(c, &r, (g.next+int(next.Add(1)-1))%serveBodies)
				if w := int(r.done.Sub(start) / time.Second); r.ok && w < windows {
					counts[w].Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	out := closedLoop{sent: int(next.Load())}
	g.next = (g.next + out.sent) % serveBodies
	per := make([]float64, windows)
	for i := range counts {
		per[i] = float64(counts[i].Load())
		out.answered += int(counts[i].Load())
	}
	out.rate = median(per)
	logf("closed loop: answered per second %v", per)
	return out
}

// send posts one body and checks every returned score bit for bit against
// the offline reference of the version that answered.
func (g *loadGen) send(c *http.Client, r *request, body int) {
	r.sent = time.Now()
	resp, err := c.Post(g.env.srv.URL+"/predict", "application/json", bytes.NewReader(g.env.bodies[body]))
	if err != nil {
		r.done = time.Now()
		g.fail("request: %v", err)
		return
	}
	var out serve.BatchResponse
	derr := json.NewDecoder(resp.Body).Decode(&out)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	r.done = time.Now()
	if g.tracer != nil {
		trace := g.tracer.NewID()
		root := g.tracer.NewID()
		g.tracer.Record(root, trace, 0, "serve.request", r.due, r.done)
		g.tracer.Add(trace, root, "serve.http", r.sent, r.done)
	}
	switch {
	case resp.StatusCode != http.StatusOK:
		g.fail("request: status %d", resp.StatusCode)
		return
	case derr != nil:
		g.fail("request: decode: %v", derr)
		return
	}
	want, ok := g.env.ref[out.Version]
	if !ok {
		g.fail("request answered by unknown version %q", out.Version)
		return
	}
	exp := want[body]
	if len(out.Scores) != len(exp) {
		g.fail("request got %d scores, want %d", len(out.Scores), len(exp))
		return
	}
	for i, s := range out.Scores {
		if math.Float64bits(s) != math.Float64bits(exp[i]) {
			g.fail("body %d row %d: %s scored %v, offline reference %v", body, i, out.Version, s, exp[i])
			return
		}
	}
	r.ok = true
}

// latencies returns each request's latency from its due time in ms,
// sorted, with failed requests as +Inf (over any limit).
func (s *segment) latencies() []float64 {
	out := make([]float64, len(s.reqs))
	for i, r := range s.reqs {
		if r.ok {
			out[i] = float64(r.done.Sub(r.due).Nanoseconds()) / 1e6
		} else {
			out[i] = math.Inf(1)
		}
	}
	sort.Float64s(out)
	return out
}

// tailQuantile is p99, or the highest quantile that leaves at least ten
// samples above it when there are fewer than 1000.
func tailQuantile(n int) float64 {
	return math.Min(0.99, 1-10/float64(max(n, 11)))
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.Inf(1)
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// passes reports whether the segment met the latency limit at its tail
// quantile with no growing backlog: what was queued when the schedule
// ended drains within the limit.
func (s *segment) passes() bool {
	lat := s.latencies()
	limit := float64(serveP99Limit.Nanoseconds()) / 1e6
	return quantile(lat, tailQuantile(len(lat))) <= limit &&
		float64(s.backlogEnd) <= s.rate*serveP99Limit.Seconds()
}

// throughput is the answered requests per second, from the first due
// time to the last answer.
func (s *segment) throughput() float64 {
	if len(s.reqs) == 0 {
		return 0
	}
	ok := 0
	last := s.reqs[0].due
	for _, r := range s.reqs {
		if r.ok {
			ok++
		}
		if r.done.After(last) {
			last = r.done
		}
	}
	return ratio(float64(ok), last.Sub(s.reqs[0].due).Seconds())
}

// swapper hot-swaps the active version every serveSwapEvery through
// /admin/activate until stopped, recording each swap's latency.
type swapper struct {
	stop  chan struct{}
	done  sync.WaitGroup
	swaps []float64 // ms
}

func startSwapper(env *serveEnv, tracer *Tracer, fail func(string, ...any)) *swapper {
	s := &swapper{stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		client := &http.Client{Timeout: 30 * time.Second}
		defer client.CloseIdleConnections()
		tick := time.NewTicker(serveSwapEvery)
		defer tick.Stop()
		for i := 1; ; i++ {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			v := serveVersions[i%len(serveVersions)].name
			body := fmt.Sprintf(`{"pipeline":%q,"version":%q}`, servePipeline, v)
			start := time.Now()
			resp, err := client.Post(env.srv.URL+"/admin/activate", "application/json", bytes.NewReader([]byte(body)))
			if err != nil {
				fail("activate %s: %v", v, err)
				continue
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			end := time.Now()
			if resp.StatusCode != http.StatusOK {
				fail("activate %s: status %d", v, resp.StatusCode)
			}
			s.swaps = append(s.swaps, float64(end.Sub(start).Nanoseconds())/1e6)
			if tracer != nil {
				tracer.Add(tracer.NewID(), 0, "serve.swap", start, end)
			}
		}
	}()
	return s
}

func (s *swapper) halt() []float64 {
	close(s.stop)
	s.done.Wait()
	return s.swaps
}

// runServe runs the serve workload: with tracing off, the reference rung
// and a closed loop at full load; with tracing on, the traced variant.
func runServe(cfg runConfig) (*result, error) {
	env, setupS, err := repeatSetup(func() (*serveEnv, error) { return setupServe(cfg.seed, cfg.nproc) })
	if err != nil {
		return nil, err
	}
	defer env.close()
	res := &result{}
	var mu sync.Mutex
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		res.fail(format, args...)
	}
	gen := newLoadGen(env, cfg.nproc, fail)
	defer gen.close()
	// Warm the connections and the hot rows of the active version.
	res.Attempted += len(gen.run(serveLadder[0], 200*time.Millisecond).reqs)
	if cfg.trace {
		return res, traceServe(env, gen, cfg, res)
	}

	// A third of the run offers the reference rate (latency), the rest is
	// a closed loop at full load (throughput).
	refDur := time.Duration(cfg.seconds / 3 * float64(time.Second))
	runtime.GC()
	c0 := readCounters()
	sampler := startPeakSampler()
	swaps := startSwapper(env, nil, fail)
	ref := gen.run(serveLadder[serveRefRung], refDur)
	sat := gen.saturate(time.Duration(cfg.seconds*float64(time.Second)) - refDur)
	swaps.halt()
	peak := sampler.Stop()
	d := c0.to(readCounters())

	lat := ref.latencies()
	answered := sat.answered
	for _, r := range ref.reqs {
		if r.ok {
			answered++
		}
	}
	res.Attempted += len(ref.reqs) + sat.sent
	logf("reference %.0f req/s: n=%d p50 %.2fms p%.1f %.2fms; closed loop: %d sent, %.1f req/s answered (median second)",
		ref.rate, len(lat), quantile(lat, 0.5), tailQuantile(len(lat))*100, quantile(lat, tailQuantile(len(lat))),
		sat.sent, sat.rate)
	res.set("setup_s", "s", setupS)
	res.set("rows_per_s", "rows/s", sat.rate*serveBatch)
	res.set("alloc_kb_per_row", "KB/row", ratio(d.allocBytes, float64(answered*serveBatch))/1024)
	res.set("peak_live_heap_mb", "MB", peak)
	res.set("p50_ms", "ms", quantile(lat, 0.5))
	return res, nil
}

// runLadder offers every rate of serveLadder in turn for seconds in all,
// the reference rung serveRefShare times as long as the others, and
// returns the answered rate at the highest rung whose tail latency meets
// serveP99Limit with no growing backlog.
func runLadder(env *serveEnv, gen *loadGen, seconds float64, res *result) float64 {
	rung := time.Duration(seconds / float64(len(serveLadder)-1+serveRefShare) * float64(time.Second))
	swaps := startSwapper(env, nil, gen.fail)
	segs := make([]*segment, len(serveLadder))
	for i, rate := range serveLadder {
		dur := rung
		if i == serveRefRung {
			dur *= serveRefShare
		}
		segs[i] = gen.run(rate, dur)
	}
	swaps.halt()
	best := 0.0
	for _, s := range segs {
		res.Attempted += len(s.reqs)
		lat := s.latencies()
		q := tailQuantile(len(lat))
		logf("rung %4.0f req/s: n=%d p50 %.2fms p%.1f %.2fms backlog end %d max %d, %.1f req/s answered, pass=%v",
			s.rate, len(lat), quantile(lat, 0.5), q*100, quantile(lat, q), s.backlogEnd, s.backlogMax, s.throughput(), s.passes())
		if s.passes() {
			best = s.throughput()
		}
	}
	return best
}

// traceServe runs the rate ladder, then the reference rung untraced and
// traced, and reports the per-layer metrics of the traced stretch.
func traceServe(env *serveEnv, gen *loadGen, cfg runConfig, res *result) error {
	maxRPS := runLadder(env, gen, cfg.seconds, res)
	rate := serveLadder[serveRefRung]
	dur := time.Duration(cfg.seconds / 2 * float64(time.Second))
	swaps := startSwapper(env, nil, gen.fail)
	plain := gen.run(rate, dur)
	swaps.halt()

	tr := newTracer()
	gen.tracer = tr
	before, err := fetchStats(env)
	if err != nil {
		return err
	}
	runtime.GC()
	c0 := readCounters()
	swaps = startSwapper(env, tr, gen.fail)
	traced := gen.run(rate, dur)
	swapMS := swaps.halt()
	d := c0.to(readCounters())
	gen.tracer = nil
	after, err := fetchStats(env)
	if err != nil {
		return err
	}
	for _, s := range []*segment{plain, traced} {
		res.Attempted += len(s.reqs)
	}

	lv := layerValues{}
	lv.runtimeLayer(d)
	plainLat, tracedLat := plain.latencies(), traced.latencies()
	lv["trace.overhead"] = ratio(quantile(tracedLat, 0.5), quantile(plainLat, 0.5))
	lv["serve.client_p99_ms"] = quantile(plainLat, tailQuantile(len(plainLat)))
	lv["serve.max_rps"] = maxRPS

	spans := tr.Spans()
	var httpMS []float64
	for _, s := range spans {
		if s.Name == "serve.http" {
			httpMS = append(httpMS, float64(s.End-s.Start)/1e6)
		}
	}
	self := SelfTime(spans)
	serverP50 := after.Latency.P50us / 1e3
	lv["serve.server_p50_ms"] = serverP50
	lv["serve.server_p99_ms"] = after.Latency.P99us / 1e3
	lv["serve.http_json_ms"] = median(httpMS) - serverP50
	hits := float64(after.Cache.Hits - before.Cache.Hits)
	misses := float64(after.Cache.Misses - before.Cache.Misses)
	lv["serve.cache_hit_ratio"] = ratio(hits, hits+misses)
	lv["serve.swap_ms"] = median(swapMS)
	sort.Float64s(traced.lags)
	lv["serve.generator_lag_ms"] = quantile(traced.lags, tailQuantile(len(traced.lags)))
	lv["serve.backlog_max"] = float64(traced.backlogMax)
	queue := make([]float64, 0, len(traced.reqs))
	for _, r := range traced.reqs {
		queue = append(queue, float64(r.sent.Sub(r.due).Nanoseconds())/1e6)
	}
	lv["serve.queue_ms"] = median(queue)
	if err := env.batchProbes(lv); err != nil {
		return err
	}
	if err := kernelProbes(lv, env.train); err != nil {
		return err
	}
	lv.report(res)
	logf("untraced p50 %.3fms traced p50 %.3fms, server p50 %.3fms, %d swaps",
		quantile(plainLat, 0.5), quantile(tracedLat, 0.5), serverP50, len(swapMS))
	return tr.Write(filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed)),
		traceDump{Workload: cfg.workload, Seed: cfg.seed, GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU: cfg.nproc, SelfTime: self})
}

// batchProbes times direct calls on the served data: TransformBatch and
// Predict of one request batch, median over the bodies and both versions.
func (e *serveEnv) batchProbes(lv layerValues) error {
	var transform, predict []float64
	for _, v := range serveVersions {
		for _, rows := range e.rows {
			start := time.Now()
			feats, err := e.pipes[v.name].TransformBatch(rows)
			if err != nil {
				return err
			}
			mid := time.Now()
			e.models[v.name].Predict(transpose(feats))
			end := time.Now()
			transform = append(transform, float64(mid.Sub(start).Nanoseconds())/1e6)
			predict = append(predict, float64(end.Sub(mid).Nanoseconds())/1e6)
		}
	}
	lv["serve.transform_ms"] = median(transform)
	lv["serve.predict_ms"] = median(predict)
	return nil
}

// fetchStats reads the server's /stats.
func fetchStats(env *serveEnv) (*serve.StatsResponse, error) {
	resp, err := http.Get(env.srv.URL + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("decode /stats: %w", err)
	}
	return &out, nil
}
