package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fingers"
	"fingers/internal/graph"
	"fingers/internal/mine"
)

// mineWorkers is the software miner's worker count, within nproc.
const mineWorkers = 2

// mineWorkload counts embeddings with the software miner under adaptive
// storage, on a sparse regime (Lj, Or: rows stay CSR arrays) and a dense
// one (a seeded 38%-density graph: every row is stored).
type mineWorkload struct {
	seed  int64
	cells []*mineCell

	// Traced loop: per-root mining time of its first pass, the largest
	// root time of any pass, and the first pass's kernel counters.
	rootNS  []int64
	rootMax int64
	stats   []mine.KernelStats // per cell
}

type mineCell struct {
	graph, pattern string
	g              *fingers.Graph
	pl             *fingers.Plan
	ref            uint64
}

func (c *mineCell) String() string { return c.graph + "/" + c.pattern }

func (w *mineWorkload) setup(sp *spanLog, parent int) error {
	lj, err := fingers.DatasetByName("Lj")
	if err != nil {
		return err
	}
	or, err := fingers.DatasetByName("Or")
	if err != nil {
		return err
	}
	dense := func() *fingers.Graph { return fingers.GenerateErdosRenyi(1024, 200000, w.seed) }
	w.cells = []*mineCell{
		{graph: "Lj", pattern: "tc", g: buildGraph(sp, parent, lj.Build)},
		{graph: "Or", pattern: "4cl", g: buildGraph(sp, parent, or.Build)},
		{graph: "dense", pattern: "tc", g: buildGraph(sp, parent, dense)},
	}
	for _, c := range w.cells {
		pl, err := compile(sp, parent, c.pattern)
		if err != nil {
			return err
		}
		c.pl = pl[0]
	}
	return nil
}

func (w *mineWorkload) close() { w.cells = nil }

// reference counts each cell by an independent path: the forced-array
// Counter (merge and gallop kernels only) on the sparse graphs, the
// reference Engine on the dense one.
func (w *mineWorkload) reference() error {
	for _, c := range w.cells {
		if c.graph == "dense" {
			c.ref = mine.CountOracle(c.g, c.pl)
			continue
		}
		ctr := mine.NewCounterPolicy(c.g, c.pl, graph.StorageArray)
		for v := 0; v < c.g.NumVertices(); v++ {
			c.ref += ctr.Root(uint32(v))
		}
	}
	return nil
}

func (w *mineWorkload) measure(window time.Duration, sp *spanLog, root int, r *result) phase {
	var ph phase
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < window; pass++ {
		pid := sp.begin("pass", "bench", root)
		var wall time.Duration
		for i, c := range w.cells {
			t := time.Now()
			var n uint64
			if sp == nil {
				n = mine.CountParallel(c.g, c.pl, mineWorkers)
			} else {
				n = w.countTraced(sp, pid, i, pass == 0)
			}
			d := time.Since(t)
			wall += d
			ph.addCell(i, d)
			r.check(n == c.ref, true, "%s: count %d, reference %d", c, n, c.ref)
		}
		sp.end(pid)
		ph.units = append(ph.units, ms(wall))
		ph.ops += len(w.cells)
	}
	ph.elapsed = time.Since(start)
	return ph
}

// countTraced is the traced run's CountParallel: the same degree-ordered
// chunked work sharing over mineWorkers Counters, with every
// Counter.Root call timed. first records the pass's per-root times and
// kernel counters.
func (w *mineWorkload) countTraced(sp *spanLog, parent, cell int, first bool) uint64 {
	c := w.cells[cell]
	id := sp.begin("mine.count", "bench", parent)
	defer sp.end(id)
	order := c.g.DegreeOrder()
	n := int64(len(order))
	chunk := min(max(n/(mineWorkers*32), 1), 256) // CountParallel's chunking
	var cursor atomic.Int64
	var total atomic.Uint64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for wk := 0; wk < mineWorkers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sid := sp.begin("mine.Counter", "mine", id)
			ctr := mine.NewCounter(c.g, c.pl)
			var local uint64
			var times []int64
			var hi int64
			for {
				base := cursor.Add(chunk) - chunk
				if base >= n {
					break
				}
				for _, v := range order[base:min(base+chunk, n)] {
					t := time.Now()
					local += ctr.Root(v)
					d := int64(time.Since(t))
					hi = max(hi, d)
					if first {
						times = append(times, d)
					}
				}
			}
			sp.end(sid)
			total.Add(local)
			mu.Lock()
			defer mu.Unlock()
			w.rootMax = max(w.rootMax, hi)
			if first {
				w.rootNS = append(w.rootNS, times...)
				for len(w.stats) <= cell {
					w.stats = append(w.stats, mine.KernelStats{})
				}
				st := ctr.Stats()
				s := &w.stats[cell]
				s.Merge += st.Merge
				s.Gallop += st.Gallop
				s.Bits += st.Bits
				s.BmProbe += st.BmProbe
				s.CountMerge += st.CountMerge
				s.CountGallop += st.CountGallop
				s.CountBits += st.CountBits
				s.CountBmProbe += st.CountBmProbe
				s.CountBmWord += st.CountBmWord
			}
		}()
	}
	wg.Wait()
	return total.Load()
}

func (w *mineWorkload) report(r *result, plain phase, traced *phase) {
	r.values["mine_wall_s"] = plain.wall() / 1e3
	if traced == nil {
		return
	}
	var g []*fingers.Graph
	var roots int
	for _, c := range w.cells {
		g = append(g, c.g)
		roots += c.g.NumVertices()
	}
	reportRows(r, g)
	r.values["mine.roots"] = float64(roots)
	times := make([]float64, len(w.rootNS))
	for i, ns := range w.rootNS {
		times[i] = float64(ns)
	}
	r.values["mine.root_p50_us"] = median(times) / 1e3
	r.values["mine.root_max_ms"] = float64(w.rootMax) / 1e6
	var sum mine.KernelStats
	for i, s := range w.stats {
		fmt.Fprintf(r.log, "setops %s merge=%d gallop=%d bits=%d bm_probe=%d bm_word=%d\n", w.cells[i],
			s.Merge+s.CountMerge, s.Gallop+s.CountGallop, s.Bits+s.CountBits,
			s.BmProbe+s.CountBmProbe, s.CountBmWord)
		sum.Merge += s.Merge + s.CountMerge
		sum.Gallop += s.Gallop + s.CountGallop
		sum.Bits += s.Bits + s.CountBits
		sum.BmProbe += s.BmProbe + s.CountBmProbe
		sum.CountBmWord += s.CountBmWord
	}
	r.values["setops.ops"] = float64(sum.Total())
	r.values["setops.merge"] = float64(sum.Merge)
	r.values["setops.gallop"] = float64(sum.Gallop)
	r.values["setops.bits"] = float64(sum.Bits)
	r.values["setops.bm_probe"] = float64(sum.BmProbe)
	r.values["setops.bm_word"] = float64(sum.CountBmWord)
}
