package main

import (
	"fmt"
	"time"

	"fingers"
	"fingers/internal/datasets"
	"fingers/internal/plan"
)

// simPEs is the chip size of every sim cell.
const simPEs = 8

// simWorkload runs fingers.Simulate over a grid of cells: every graph ×
// pattern × architecture, one call per cell per pass.
type simWorkload struct {
	graphNames []string
	patterns   []string
	archs      []fingers.Arch
	shards     int // 0 runs the serial event loop unsharded

	graphs map[string]*fingers.Graph
	plans  map[string][]*fingers.Plan
	refs   map[string]uint64 // graph/pattern → mine.Count
	cells  []*simCell

	// Shard split of each untraced pass, summed over the cells, seconds.
	shardMax, shardMean, shardMerge []float64
	// Simulated-side counts of the first traced pass.
	events simCounts
	perPE  fingers.CycleBreakdown
	iu     fingers.IUStats
}

type simCell struct {
	graph, pattern string
	arch           fingers.Arch
	print          fingerprint // statistics of the cell's first run
	seen           bool
}

func (c *simCell) String() string {
	return fmt.Sprintf("%s/%s/%s/%dpe", c.graph, c.pattern, c.arch, simPEs)
}

// fingerprint is a cell's simulated statistics. It is deterministic:
// two commits that change only host speed print identical fingerprints.
type fingerprint struct {
	cycles, count                      uint64
	compute, memStall, overhead, idle  uint64
	cacheLines, cacheMisses, dramBytes int64
	dramAccesses                       int64
}

func fingerprintOf(rep fingers.SimReport) fingerprint {
	res := rep.Result
	return fingerprint{
		cycles: uint64(res.Cycles), count: res.Count,
		compute: uint64(res.Breakdown.Compute), memStall: uint64(res.Breakdown.MemStall),
		overhead: uint64(res.Breakdown.Overhead), idle: uint64(res.Breakdown.Idle),
		cacheLines: res.SharedCache.LineAccesses, cacheMisses: res.SharedCache.LineMisses,
		dramBytes: res.DRAM.BytesMoved, dramAccesses: res.DRAM.Accesses,
	}
}

func (f fingerprint) String() string {
	return fmt.Sprintf("cycles=%d count=%d compute=%d mem_stall=%d overhead=%d idle=%d "+
		"cache_line_accesses=%d cache_line_misses=%d dram_accesses=%d dram_bytes=%d",
		f.cycles, f.count, f.compute, f.memStall, f.overhead, f.idle,
		f.cacheLines, f.cacheMisses, f.dramAccesses, f.dramBytes)
}

func newSimOnchip() *simWorkload {
	return &simWorkload{
		graphNames: []string{"As", "Mi"},
		patterns:   []string{"tt", "cyc"},
		archs:      []fingers.Arch{fingers.ArchFingers},
	}
}

// newSimOffchip counts tc only: its calls are short enough that each
// cell gets a dozen samples per run, which its median needs on a host
// whose speed drifts within seconds.
func newSimOffchip() *simWorkload {
	return &simWorkload{
		graphNames: []string{"Yo", "Pa"},
		patterns:   []string{"tc"},
		archs:      []fingers.Arch{fingers.ArchFlexMiner, fingers.ArchSISA},
		shards:     2,
	}
}

func (w *simWorkload) setup(sp *spanLog, parent int) error {
	w.graphs = map[string]*fingers.Graph{}
	for _, name := range w.graphNames {
		d, err := fingers.DatasetByName(name)
		if err != nil {
			return err
		}
		g := buildGraph(sp, parent, d.Build)
		w.graphs[name] = g
	}
	w.plans = map[string][]*fingers.Plan{}
	for _, p := range w.patterns {
		pl, err := compile(sp, parent, p)
		if err != nil {
			return err
		}
		w.plans[p] = pl
	}
	w.cells = w.cells[:0]
	for _, g := range w.graphNames {
		for _, p := range w.patterns {
			for _, a := range w.archs {
				w.cells = append(w.cells, &simCell{graph: g, pattern: p, arch: a})
			}
		}
	}
	return nil
}

// buildGraph generates a graph and its hybrid view with every row
// materialized, so no lazy set-up is left for a timed region.
func buildGraph(sp *spanLog, parent int, build func() *fingers.Graph) *fingers.Graph {
	id := sp.begin("graph.build", "graph", parent)
	g := build()
	sp.end(id)
	id = sp.begin("graph.hybrid_build", "graph", parent)
	g.Hybrid().MaterializeAll()
	sp.end(id)
	return g
}

// compile compiles a benchmark pattern the way the CLIs and fingersd do.
func compile(sp *spanLog, parent int, pattern string) ([]*fingers.Plan, error) {
	id := sp.begin("plan.compile", "plan", parent)
	defer sp.end(id)
	return plan.ForBenchmark(pattern)
}

// close drops the set-up's graphs so the next set-up starts without
// them.
func (w *simWorkload) close() { w.graphs, w.plans = nil, nil }

func (w *simWorkload) reference() error {
	w.refs = map[string]uint64{}
	for _, g := range w.graphNames {
		for _, p := range w.patterns {
			var n uint64
			for _, pl := range w.plans[p] {
				n += fingers.Count(w.graphs[g], pl)
			}
			w.refs[g+"/"+p] = n
		}
	}
	return nil
}

func (w *simWorkload) options(tr fingers.Tracer) []fingers.SimOption {
	opts := []fingers.SimOption{
		fingers.WithPEs(simPEs),
		fingers.WithSharedCache(datasets.ScaledSharedCacheBytes),
	}
	if w.shards > 1 {
		opts = append(opts, fingers.WithShards(w.shards))
	}
	if tr != nil {
		opts = append(opts, fingers.WithTracer(tr), fingers.WithStats())
	}
	return opts
}

func (w *simWorkload) measure(window time.Duration, sp *spanLog, root int, r *result) phase {
	var ph phase
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < window; pass++ {
		pid := sp.begin("pass", "bench", root)
		var wall time.Duration
		var smax, smean, smerge float64
		for i, c := range w.cells {
			var tr *simCounts
			var opts []fingers.SimOption
			if sp != nil {
				tr = &simCounts{}
				opts = w.options(tr)
			} else {
				opts = w.options(nil)
			}
			id := sp.begin("fingers.Simulate", "sim", pid)
			t := time.Now()
			rep, err := fingers.Simulate(c.arch, w.graphs[c.graph], w.plans[c.pattern], opts...)
			d := time.Since(t)
			sp.end(id)
			wall += d
			ph.addCell(i, d)
			if err != nil {
				r.check(false, false, "%s: Simulate: %v", c, err)
				continue
			}
			fp := fingerprintOf(rep)
			ref := w.refs[c.graph+"/"+c.pattern]
			switch {
			case fp.count != ref:
				r.check(false, true, "%s: Simulate count %d, mine.Count %d", c, fp.count, ref)
			case c.seen && fp != c.print:
				r.check(false, true, "%s: simulated statistics changed between runs:\n  first %v\n  now   %v", c, c.print, fp)
			default:
				r.check(true, false, "")
			}
			if !c.seen {
				c.print, c.seen = fp, true
			}
			if n := len(rep.ShardWallNS); n > 0 && sp == nil {
				var hi, sum int64
				for _, ns := range rep.ShardWallNS {
					hi = max(hi, ns)
					sum += ns
				}
				smax += float64(hi) / 1e9
				smean += float64(sum) / float64(n) / 1e9
				smerge += d.Seconds() - float64(hi)/1e9
			}
			if tr != nil && pass == 0 {
				w.addTraced(r, c, rep, tr)
			}
		}
		sp.end(pid)
		if sp == nil {
			w.shardMax = append(w.shardMax, smax)
			w.shardMean = append(w.shardMean, smean)
			w.shardMerge = append(w.shardMerge, smerge)
		}
		ph.units = append(ph.units, ms(wall))
		ph.ops += len(w.cells)
	}
	ph.elapsed = time.Since(start)
	return ph
}

// addTraced accumulates one traced call's simulated-side counts and
// checks that the per-PE records add up to the chip-wide rollup.
func (w *simWorkload) addTraced(r *result, c *simCell, rep fingers.SimReport, tr *simCounts) {
	var sum fingers.CycleBreakdown
	for _, pe := range rep.PerPE {
		sum.Accumulate(pe.Breakdown)
	}
	if sum != rep.Result.Breakdown {
		r.check(false, true, "%s: per-PE breakdown %v does not sum to the chip's %v", c, sum, rep.Result.Breakdown)
	}
	w.perPE.Accumulate(sum)
	w.events.taskGroups += tr.taskGroups
	w.events.setOps += tr.setOps
	w.events.setOpElems += tr.setOpElems
	w.events.iuWorkloads += tr.iuWorkloads
	w.events.accesses += tr.accesses
	w.events.lines += tr.lines
	w.events.misses += tr.misses
	w.events.accessCycles += tr.accessCycles
	w.events.bursts += tr.bursts
	w.events.burstBytes += tr.burstBytes
	w.iu.AssignedIUCycles += rep.IU.AssignedIUCycles
	w.iu.BusyIUCycles += rep.IU.BusyIUCycles
	w.iu.TotalCycles += rep.IU.TotalCycles
	w.iu.NumIUs = rep.IU.NumIUs
	w.iu.BalanceNum += rep.IU.BalanceNum
	w.iu.BalanceDen += rep.IU.BalanceDen
}

func (w *simWorkload) report(r *result, plain phase, traced *phase) {
	var cycles uint64
	for _, c := range w.cells {
		fmt.Fprintf(r.log, "fingerprint %s %s\n", c, c.print)
		cycles += c.print.cycles
	}
	wallNS := plain.wall() * 1e6
	r.values["sim_wall_s"] = wallNS / 1e9
	r.values["sim_cycles"] = float64(cycles)
	if traced == nil {
		return
	}
	e := w.events
	r.values["sim.cycles"] = float64(cycles)
	r.values["pe.compute_cycles"] = float64(w.perPE.Compute)
	r.values["pe.mem_stall_cycles"] = float64(w.perPE.MemStall)
	r.values["pe.overhead_cycles"] = float64(w.perPE.Overhead)
	r.values["pe.idle_cycles"] = float64(w.perPE.Idle)
	r.values["pe.task_groups"] = float64(e.taskGroups)
	r.values["pe.setops_issued"] = float64(e.setOps)
	r.values["pe.setop_elems"] = float64(e.setOpElems)
	r.values["pe.iu_workloads"] = float64(e.iuWorkloads)
	r.values["fingers.iu_active_rate"] = w.iu.ActiveRate()
	r.values["fingers.iu_balance_rate"] = w.iu.BalanceRate()
	r.values["mem.cache_accesses"] = float64(e.accesses)
	r.values["mem.cache_lines"] = float64(e.lines)
	r.values["mem.dram_bursts"] = float64(e.bursts)
	r.values["mem.dram_bytes"] = float64(e.burstBytes)
	if e.lines > 0 {
		r.values["mem.cache_miss_rate"] = float64(e.misses) / float64(e.lines)
	}
	if e.accesses > 0 {
		r.values["mem.access_cycles_mean"] = float64(e.accessCycles) / float64(e.accesses)
		r.values["sim.host_ns_per_access"] = wallNS / float64(e.accesses)
	}
	if e.setOps > 0 {
		r.values["sim.host_ns_per_setop"] = wallNS / float64(e.setOps)
	}
	if w.shards > 1 {
		r.values["shard.wall_max_s"] = median(w.shardMax)
		r.values["shard.imbalance"] = median(w.shardMax) / median(w.shardMean)
		r.values["shard.merge_s"] = median(w.shardMerge)
	}
	var g []*fingers.Graph
	for _, name := range w.graphNames {
		g = append(g, w.graphs[name])
	}
	reportRows(r, g)
}

// reportRows reports the hybrid storage mix of the workload's graphs.
func reportRows(r *result, graphs []*fingers.Graph) {
	var dense, bitmap, bytes float64
	for _, g := range graphs {
		fp := g.Hybrid().Footprint()
		dense += float64(fp.DenseRows)
		bitmap += float64(fp.BitmapRows)
		bytes += float64(fp.HybridBytes())
	}
	r.values["graph.rows_dense"] = dense
	r.values["graph.rows_bitmap"] = bitmap
	r.values["graph.hybrid_bytes"] = bytes
}
