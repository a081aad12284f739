package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the metric check needs.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCatalogMatchesBenchmarkFile pins the Go metric tables to
// BENCHMARK.json, name for name and unit for unit.
func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	check := func(kind string, got []metric, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the catalog, %d in BENCHMARK.json", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: catalog %s [%s], BENCHMARK.json %s [%s]",
					kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
	for _, w := range b.Workloads {
		if _, err := newWorkload(config{workload: w.Name}); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
}

// layerMetrics are per-layer metrics each workload must measure as
// nonzero: the layers it exists to load.
var layerMetrics = map[string][]string{
	"sim-onchip": {"graph.build_s", "plan.compile_s", "sim.cycles", "pe.compute_cycles",
		"pe.task_groups", "pe.setops_issued", "fingers.iu_active_rate", "mem.cache_accesses",
		"sim.host_ns_per_setop", "self.sim_s"},
	"sim-offchip": {"graph.build_s", "sim.cycles", "pe.mem_stall_cycles", "mem.cache_miss_rate",
		"mem.access_cycles_mean", "mem.dram_bursts", "mem.dram_bytes", "sim.host_ns_per_access",
		"shard.wall_max_s", "shard.imbalance", "self.sim_s"},
	"mine-soft": {"graph.build_s", "graph.hybrid_build_s", "graph.rows_dense", "plan.compile_s",
		"mine.roots", "mine.root_p50_us", "mine.root_max_ms", "setops.ops", "setops.merge",
		"setops.bits", "self.mine_s"},
	"service-jobs": {"graph.build_s", "plan.compile_s", "service.submit_ms_p50",
		"service.run_ms_p50", "service.status_ms_p50", "journal.records", "journal.bytes",
		"journal.append_ms_p50", "self.service_s", "self.journal_s", "self.sim_s"},
}

// TestWorkloadsShort runs every workload briefly, untraced and traced,
// and checks that every count verified and every metric of
// BENCHMARK.json is emitted with its unit.
func TestWorkloadsShort(t *testing.T) {
	if !testing.Short() {
		t.Skip("run with -short: the full benchmark is perfbench/run.sh")
	}
	b := readBenchmarkFile(t)
	for _, w := range b.Workloads {
		for _, trace := range []bool{false, true} {
			name := w.Name + "/untraced"
			if trace {
				name = w.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := config{
					workload: w.Name, seed: 3, window: time.Nanosecond, trace: trace,
					setupReps: 2, minJobs: 12, tmpDir: t.TempDir(), log: io.Discard,
				}
				r, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				out, err := finish(r, trace)
				if err != nil {
					t.Fatal(err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
				}
				want := b.EndToEnd
				if trace {
					want = b.PerLayer
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json lists %d", len(out.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := out.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s: unit %q, want %q", m.Name, got.Unit, m.Unit)
					case !trace && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if trace {
					for _, name := range layerMetrics[w.Name] {
						if out.Metrics[name].Value <= 0 {
							t.Errorf("per-layer metric %s = %v, want > 0", name, out.Metrics[name].Value)
						}
					}
				}
			})
		}
	}
}

func TestSelfTimes(t *testing.T) {
	l := &spanLog{spans: []span{
		{name: "job", layer: "bench", parent: -1, start: 0, end: 100},
		{name: "a", layer: "service", parent: 0, start: 10, end: 40},
		{name: "b", layer: "service", parent: 0, start: 30, end: 60}, // overlaps a
		{name: "c", layer: "sim", parent: 2, start: 35, end: 50},
		{name: "other", layer: "bench", parent: -1, start: 0, end: 1000},
	}}
	got := l.selfTimes(0)
	want := map[string]time.Duration{"bench": 50, "service": 30 + 15, "sim": 15}
	for layer, d := range want {
		if got[layer] != d {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], d)
		}
	}
	if l.total("a", 0) != 30 || l.total("other", 0) != 0 {
		t.Errorf("total: a=%v other=%v", l.total("a", 0), l.total("other", 0))
	}
}
