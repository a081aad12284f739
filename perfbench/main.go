// Command perfbench is the repository's benchmark. It times the three
// paths a user waits on — a fingers.Simulate call, a software mining
// count and a fingersd job from POST to terminal record — end to end,
// and splits them by layer in a separate traced run. Run it from the
// repository root through its build script:
//
//	bash perfbench/run.sh --workload sim-onchip --seed 1 --seconds 10 --trace 0
//
// Workloads (BENCHMARK.json records why each exists):
//
//   - sim-onchip: FINGERS, serial event loop, 8 PEs, As and Mi × tt and
//     cyc. Both graphs fit the scaled 1 MB shared cache, so the FINGERS
//     PE model and mine.Engine's functional set operations carry the
//     host time. No shard or FlexMiner code runs.
//   - sim-offchip: FlexMiner and SISA, 8 PEs, WithShards(2), Yo and Pa
//     × tc. Both graphs overflow the cache, so the memory/DRAM model and
//     the shard merge carry the load. The FINGERS PE model never runs.
//   - mine-soft: mine.CountParallel with 2 workers and adaptive storage
//     on Lj/tc, Or/4cl and a seeded 1024-vertex Erdős–Rényi graph (38%
//     density) counting tc. No simulator layer runs. Sparse rows stay
//     CSR arrays while every row of the dense graph is a stored bitset.
//   - service-jobs: in-process fingersd (registry preloaded with As and
//     Mi, a Manager with 2 workers journaling to a fresh directory, the
//     HTTP server over httptest) driven by 2 closed-loop clients. Each
//     submits a seeded job, follows /stream to the terminal record and
//     reads the job status. The only workload that loads service and
//     journal.
//
// The seed drives the service job sequence and the dense synthetic
// graph; the dataset analogues keep their registry seeds, so the sim
// workloads are the same for every seed.
//
// Every unit of work is checked: each Simulate count against mine.Count
// on the same graph and plan, each repeated sim cell's simulated
// statistics against its first run, each mine-soft count against the
// forced-array Counter (Lj, Or) or CountOracle (dense graph), and each
// job's terminal record against a direct count. The references are
// computed before the timed region. Each Simulate call builds a fresh
// chip, so simulated caches start empty on every call.
//
// The timing model is not validated against hardware and the repository
// holds no reference measurements: simulated cycles are comparable
// between two commits only.
//
// Output: human-readable lines (provenance, the simulated-statistics
// fingerprint of every sim cell, every measured value), then, as the
// last line, one JSON object with the keys correct, attempted, failed
// and metrics. With --trace 0 the metrics are the end-to-end ones, taken
// with tracing off; with --trace 1 the run repeats the timed loop with
// spans recorded around every layer call and reports the per-layer
// metrics, each layer's self time and the tracing overhead.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"fingers/internal/telemetry"
)

// metric is one reported metric: its name and unit as BENCHMARK.json
// lists them.
type metric struct{ name, unit string }

// endToEnd are the metrics a user sees. One unit of work is a pass of
// one call per cell on sim-* and mine-soft, and one job on service-jobs.
var endToEnd = []metric{
	{"setup_s", "s"},      // median of several full set-ups in one run
	{"wall_ms", "ms"},     // median unit of work: sim_wall_s, mine_wall_s, job_p50_ms
	{"tail_ms", "ms"},     // 95th percentile unit of work: job_p95_ms on service-jobs
	{"ops_per_s", "1/s"},  // Simulate calls, counts or jobs completed per second
	{"peak_rss_mb", "MB"}, // peak resident memory of the process
}

// perLayer are the traced run's metrics. A workload that bypasses a
// layer reports 0 for it.
var perLayer = []metric{
	{"graph.build_s", "s"},
	{"graph.hybrid_build_s", "s"},
	{"graph.rows_dense", "count"},
	{"graph.rows_bitmap", "count"},
	{"graph.hybrid_bytes", "bytes"},
	{"plan.compile_s", "s"},
	{"mine.roots", "count"},
	{"mine.root_p50_us", "us"},
	{"mine.root_max_ms", "ms"},
	{"setops.ops", "count"},
	{"setops.merge", "count"},
	{"setops.gallop", "count"},
	{"setops.bits", "count"},
	{"setops.bm_probe", "count"},
	{"setops.bm_word", "count"},
	{"sim.cycles", "cycles"},
	{"pe.compute_cycles", "cycles"},
	{"pe.mem_stall_cycles", "cycles"},
	{"pe.overhead_cycles", "cycles"},
	{"pe.idle_cycles", "cycles"},
	{"pe.task_groups", "count"},
	{"pe.setops_issued", "count"},
	{"pe.setop_elems", "count"},
	{"pe.iu_workloads", "count"},
	{"fingers.iu_active_rate", "ratio"},
	{"fingers.iu_balance_rate", "ratio"},
	{"sim.host_ns_per_setop", "ns"},
	{"mem.cache_accesses", "count"},
	{"mem.cache_lines", "count"},
	{"mem.cache_miss_rate", "ratio"},
	{"mem.access_cycles_mean", "cycles"},
	{"mem.dram_bursts", "count"},
	{"mem.dram_bytes", "bytes"},
	{"sim.host_ns_per_access", "ns"},
	{"shard.wall_max_s", "s"},
	{"shard.imbalance", "ratio"},
	{"shard.merge_s", "s"},
	{"service.submit_ms_p50", "ms"},
	{"service.submit_ms_p95", "ms"},
	{"service.queue_wait_ms_p50", "ms"},
	{"service.queue_wait_ms_p95", "ms"},
	{"service.run_ms_p50", "ms"},
	{"service.deliver_ms_p50", "ms"},
	{"service.status_ms_p50", "ms"},
	{"service.rejected", "count"},
	{"service.retried", "count"},
	{"journal.records", "count/job"},
	{"journal.bytes", "bytes/job"},
	{"journal.append_ms_p50", "ms"},
	{"journal.append_ms_p95", "ms"},
	{"self.bench_s", "s"},
	{"self.sim_s", "s"},
	{"self.mine_s", "s"},
	{"self.service_s", "s"},
	{"self.journal_s", "s"},
	{"trace.spans", "count"},
	{"trace.overhead_pct", "%"},
}

// layers are the span layers of the timed loop, whose self time per
// unit of work is reported: the benchmark's own code ("bench") and the
// modules it calls into. "sim" covers accel, fingers, flexminer, mem,
// noc and the shard façade, which cannot be told apart from outside a
// Simulate call; their simulated-side split comes from the Tracer and
// WithStats. The graph and plan layers run only in set-up, where
// graph.build_s, graph.hybrid_build_s and plan.compile_s time them.
var layers = []string{"bench", "sim", "mine", "service", "journal"}

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	window   time.Duration // timed loop length; at least one unit always runs
	trace    bool
	// setupReps is the least number of set-ups; setup_s is their median.
	// Cheap set-ups repeat until minSetupTime is spent.
	setupReps int
	// minJobs is the least number of jobs service-jobs completes per
	// timed loop, so that p95 has at least ten samples beyond it.
	minJobs int
	tmpDir  string    // scratch space for fingersd journals
	log     io.Writer // human-readable lines
}

// A run repeats its set-up at least config.setupReps times and until
// minSetupTime is spent, up to maxSetupReps set-ups.
const (
	minSetupTime = time.Second
	maxSetupReps = 40
)

// workload is one benchmark workload.
type workload interface {
	// setup builds everything the timed loop needs, recording spans
	// under parent. It runs several times; the last set-up stays.
	setup(sp *spanLog, parent int) error
	// close releases the current set-up.
	close()
	// reference computes the expected outputs, outside any timed region.
	reference() error
	// measure runs the timed loop for the window and checks every
	// output. A nil sp is the untraced loop.
	measure(window time.Duration, sp *spanLog, root int, r *result) phase
	// report adds the workload's own values once both loops ran; traced
	// is nil on untraced runs.
	report(r *result, plain phase, traced *phase)
}

// phase is one timed loop's outcome.
type phase struct {
	units []float64 // latency of each unit of work, ms
	// cells holds each cell's call latencies (ms) on workloads whose
	// unit is a pass over several cells; nil on service-jobs.
	cells   [][]float64
	ops     int // operations completed
	elapsed time.Duration
}

// wall is the median unit of work. For a pass over cells it is the sum
// of the cells' median call times, so one disturbed call moves only its
// own cell's sample.
func (p phase) wall() float64 {
	if p.cells == nil {
		return median(p.units)
	}
	var sum float64
	for _, c := range p.cells {
		sum += median(c)
	}
	return sum
}

// tail is the slowest unit a user waits on: the 95th-percentile job, or
// on a pass over cells the slowest cell's median call.
func (p phase) tail() float64 {
	if p.cells == nil {
		return quantile(p.units, 0.95)
	}
	var slowest float64
	for _, c := range p.cells {
		slowest = max(slowest, median(c))
	}
	return slowest
}

// addCell records one call of cell i.
func (p *phase) addCell(i int, d time.Duration) {
	for len(p.cells) <= i {
		p.cells = append(p.cells, nil)
	}
	p.cells[i] = append(p.cells[i], ms(d))
}

// result collects a run's values and its operation accounting.
type result struct {
	attempted, failed int
	wrong             int // outputs that did not match their reference
	values            map[string]float64
	log               io.Writer
}

// check accounts one operation: ok reports that it succeeded and its
// output matched the reference.
func (r *result) check(ok bool, wrongOutput bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if wrongOutput {
		r.wrong++
	}
	fmt.Fprintf(r.log, "FAIL "+format+"\n", args...)
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "sim-onchip":
		return newSimOnchip(), nil
	case "sim-offchip":
		return newSimOffchip(), nil
	case "mine-soft":
		return &mineWorkload{seed: cfg.seed}, nil
	case "service-jobs":
		return &serviceWorkload{seed: cfg.seed, minJobs: cfg.minJobs, tmpDir: cfg.tmpDir}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (valid: sim-onchip, sim-offchip, mine-soft, service-jobs)", cfg.workload)
}

// run performs one benchmark run and returns its values.
func run(cfg config) (*result, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	r := &result{values: map[string]float64{}, log: cfg.log}
	var sp *spanLog
	if cfg.trace {
		sp = newSpanLog()
	}

	setupRoot := sp.begin("setup", "bench", -1)
	var setups []float64
	var spent time.Duration
	for len(setups) < cfg.setupReps || spent < minSetupTime && len(setups) < maxSetupReps {
		if len(setups) > 0 {
			w.close()
		}
		runtime.GC() // each set-up starts from a collected heap
		t := time.Now()
		if err := w.setup(sp, setupRoot); err != nil {
			w.close()
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		d := time.Since(t)
		spent += d
		setups = append(setups, d.Seconds())
	}
	sp.end(setupRoot)
	defer w.close()
	r.values["setup_s"] = median(setups)

	if err := w.reference(); err != nil {
		return nil, fmt.Errorf("%s: reference: %w", cfg.workload, err)
	}

	runtime.GC()
	plain := w.measure(cfg.window, nil, -1, r)
	r.values["wall_ms"] = plain.wall()
	r.values["tail_ms"] = plain.tail()
	r.values["ops_per_s"] = float64(plain.ops) / plain.elapsed.Seconds()
	r.values["units"] = float64(len(plain.units))
	if len(plain.units) <= 64 {
		fmt.Fprintf(cfg.log, "units %s ms %.1f\n", cfg.workload, plain.units)
	}

	var traced *phase
	if cfg.trace {
		runtime.GC()
		root := sp.begin("measure", "bench", -1)
		t := w.measure(cfg.window, sp, root, r)
		sp.end(root)
		traced = &t
		reps := float64(len(setups))
		r.values["graph.build_s"] = sp.total("graph.build", setupRoot).Seconds() / reps
		r.values["graph.hybrid_build_s"] = sp.total("graph.hybrid_build", setupRoot).Seconds() / reps
		r.values["plan.compile_s"] = sp.total("plan.compile", setupRoot).Seconds() / reps
		self := sp.selfTimes(root)
		for _, l := range layers {
			r.values["self."+l+"_s"] = self[l].Seconds() / float64(len(t.units))
		}
		r.values["trace.overhead_pct"] = 100 * (t.wall()/plain.wall() - 1)
	}
	w.report(r, plain, traced)
	if sp != nil {
		r.values["trace.spans"] = float64(len(sp.spans))
	}
	r.values["peak_rss_mb"] = peakRSSMB()
	r.values["error_rate"] = float64(r.failed) / float64(max(r.attempted, 1))
	return r, nil
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// output is the benchmark's last line.
type output struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish selects the mode's metrics from r.
func finish(r *result, trace bool) (output, error) {
	list := endToEnd
	if trace {
		list = perLayer
	}
	out := output{
		Correct:   r.wrong == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricJSON{},
	}
	for _, m := range list {
		v, ok := r.values[m.name]
		if !ok && !trace {
			return out, fmt.Errorf("end-to-end metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is %v", m.name, v)
		}
		out.Metrics[m.name] = metricJSON{Value: v, Unit: m.unit}
	}
	if r.attempted == 0 {
		return out, errors.New("no operation was attempted")
	}
	return out, nil
}

func main() {
	cfg := config{setupReps: 5, minJobs: 200, log: os.Stdout}
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "sim-onchip, sim-offchip, mine-soft or service-jobs")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the service job sequence and the dense synthetic graph")
	flag.IntVar(&seconds, "seconds", 10, "length of each timed loop")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run")
	flag.StringVar(&cfg.tmpDir, "tmp", ".bench_build/tmp", "scratch directory for fingersd journals")
	flag.Parse()
	if trace != 0 && trace != 1 || seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace takes 0 or 1, --seconds a positive number")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	cfg.window = time.Duration(seconds) * time.Second

	meta := telemetry.HostMeta()
	meta.Source = "perfbench"
	prov, _ := json.Marshal(map[string]any{
		"meta": meta, "go": runtime.Version(), "workload": cfg.workload, "seed": cfg.seed,
		"seconds": seconds, "trace": cfg.trace,
		"sim_state": "each Simulate call builds a fresh chip: simulated caches start empty",
	})
	fmt.Printf("provenance %s\n", prov)

	r, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(r.values))
	for k := range r.values {
		names = append(names, k)
	}
	sort.Strings(names)
	units := map[string]string{
		"sim_wall_s": "s", "sim_cycles": "cycles", "mine_wall_s": "s", "jobs_per_s": "1/s",
		"job_p50_ms": "ms", "job_p95_ms": "ms", "error_rate": "ratio", "units": "count",
	}
	for _, m := range append(endToEnd, perLayer...) {
		units[m.name] = m.unit
	}
	for _, k := range names {
		fmt.Printf("value %s %s = %.6g %s\n", cfg.workload, k, r.values[k], units[k])
	}
	out, err := finish(r, cfg.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}
