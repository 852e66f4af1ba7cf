package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/colstore"
	"repro/internal/frame"
)

// The source wrapper must keep the optional interfaces the sharded engine
// plans with; losing SkippableSource would silently turn off block
// skipping, losing StableSource the zero-copy prefetch path.
func TestWrapSourceKeepsOptionalInterfaces(t *testing.T) {
	f, err := fitTable(3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.col")
	if err := colstore.WriteFrame(path, f, colstore.WriterOptions{GroupRows: 1000}); err != nil {
		t.Fatal(err)
	}
	col, err := colstore.OpenSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	for _, tc := range []struct {
		name              string
		src               frame.ChunkSource
		skippable, stable bool
	}{
		{"colstore", col, true, true},
		{"frame", frame.NewFrameChunks(f, 1000), false, true},
		{"bare", struct{ frame.ChunkSource }{col}, false, false},
	} {
		w := wrapSource(tc.src, newFitTrace(newTracer()))
		if _, ok := w.(frame.SkippableSource); ok != tc.skippable {
			t.Errorf("%s: wrapped SkippableSource = %v, want %v", tc.name, ok, tc.skippable)
		}
		if _, ok := w.(frame.StableSource); ok != tc.stable {
			t.Errorf("%s: wrapped StableSource = %v, want %v", tc.name, ok, tc.stable)
		}
	}
}

// Traced and untraced fits of the out-of-core workloads select the same
// features and consume their source identically: the wrappers observe,
// they do not change what the engine computes.
func TestTracedFitsMatchUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("fits the full 100k×50 table four times")
	}
	ctx := context.Background()
	for _, engine := range []string{engineColstore, engineDist} {
		t.Run(engine, func(t *testing.T) {
			env, err := setupFit(engine, defaultSeed, t.TempDir(), 2)
			if err != nil {
				t.Fatal(err)
			}
			defer env.close()
			plain, err := env.fitOnce(ctx, nil)
			if err != nil {
				t.Fatal(err)
			}
			ft := newFitTrace(newTracer())
			traced, err := env.fitOnce(ctx, ft)
			ft.finish()
			if err != nil {
				t.Fatal(err)
			}
			for name, r := range map[string]fitResult{"untraced": plain, "traced": traced} {
				if r.fp != defaultFingerprint {
					t.Errorf("%s fingerprint %s, want %s", name, r.fp, defaultFingerprint)
				}
			}
			if plain.stats != traced.stats {
				t.Errorf("shard stats differ: untraced %+v, traced %+v", plain.stats, traced.stats)
			}
			st := traced.stats
			if st.Passes != 8 || st.RowsStreamed != 800_000 || st.BlocksSkipped != 0 {
				t.Errorf("stats %+v, want 8 passes, 800000 rows streamed, 0 blocks skipped", st)
			}
			if engine == engineColstore && ft.readBytes.Load() == 0 {
				t.Error("traced colstore fit recorded no reads")
			}
			if engine == engineDist && (ft.partialBytes.Load() == 0 || ft.passSkew() == 0) {
				t.Error("traced distributed fit recorded no partials or pass intervals")
			}
		})
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "core.generate", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "shard.pass", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "shard.pass", Start: 40, End: 70},
		{ID: 4, Parent: 2, Name: "colstore.next", Start: 20, End: 30},
	}
	self := SelfTime(spans)
	for layer, want := range map[string]float64{"core": 40e-9, "shard": 60e-9, "colstore": 10e-9} {
		if got := self[layer]; got != want {
			t.Errorf("%s self time %g, want %g", layer, got, want)
		}
	}
}

// BENCHMARK.json must declare exactly the workloads and metrics the
// benchmark runs and prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, code %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
	check := func(kind string, declared []struct{ Name, Unit string }, code []metricDef) {
		if len(declared) != len(code) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, code reports %d", kind, len(declared), len(code))
			return
		}
		for i, m := range code {
			if declared[i].Name != m.name || declared[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)",
					kind, i, declared[i].Name, declared[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
