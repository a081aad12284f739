package fingers

import (
	"math/rand"
	"sort"
	"testing"

	"fingers/internal/graph/gen"
	"fingers/internal/mem"
	"fingers/internal/mine"
	"fingers/internal/setops"
)

// linearScanIUs is the reference list scheduler: every workload goes to
// the first IU with the least busy time, found by a full scan, and the
// per-op and per-task bookkeeping is recomputed from whole arrays.
type linearScanIUs struct {
	busy, opBusy []mem.Cycles
	wl           []int
	stats        IUStats
}

func (r *linearScanIUs) schedule(cycles mem.Cycles) {
	if cycles < 1 {
		cycles = 1
	}
	best := 0
	for i := range r.busy {
		if r.busy[i] < r.busy[best] {
			best = i
		}
	}
	r.busy[best] += cycles
	r.opBusy[best] += cycles
	r.wl[best]++
}

// op schedules one set operation's workloads, derived by the
// materializing Pair+Balance path, and closes the op's balance-rate
// bookkeeping. It returns the workload count.
func (r *linearScanIUs) op(cfg Config, kind setops.Op, short, long []uint32) int {
	p := setops.Pair(setops.Segment(long, cfg.LongSegLen), setops.Segment(short, cfg.ShortSegLen))
	wls := setops.Balance(p, kind, cfg.MaxLoad)
	for _, w := range wls {
		r.schedule(mem.Cycles(w.LongLen(p) + w.ShortLen(p)))
	}
	var dur, sum mem.Cycles
	subset := 0
	for i, b := range r.opBusy {
		if b == 0 {
			continue
		}
		subset++
		sum += b
		if b > dur {
			dur = b
		}
		r.opBusy[i] = 0
	}
	if subset > 0 {
		r.stats.BalanceNum += float64(sum)
		r.stats.BalanceDen += float64(dur) * float64(subset)
		r.stats.AssignedIUCycles += dur * mem.Cycles(subset)
	}
	return len(wls)
}

// drain mirrors PE.drainIUs over the whole arrays.
func (r *linearScanIUs) drain() (used int, busySum, maxBusy mem.Cycles) {
	for _, b := range r.busy {
		if b > 0 {
			used++
		}
	}
	for i, b := range r.busy {
		busySum += b
		eff := b
		if rr := mem.Cycles(r.wl[i]) * mem.Cycles(used); rr > eff {
			eff = rr
		}
		if eff > maxBusy {
			maxBusy = eff
		}
		r.busy[i], r.wl[i] = 0, 0
	}
	r.stats.BusyIUCycles += busySum
	return used, busySum, maxBusy
}

// randomSet returns a sorted set of n distinct values below universe.
func randomSet(rng *rand.Rand, n, universe int) []uint32 {
	if n > universe {
		n = universe
	}
	seen := make(map[uint32]bool, n)
	out := make([]uint32, 0, n)
	for len(out) < n {
		v := uint32(rng.Intn(universe))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestScheduleMatchesLinearScan drives random set operations, across op
// and task boundaries, through chargeOp and drainIUs (the IU part of
// computeTask) and checks the heap scheduler against a first-minimum
// linear scan after every op: per-IU busy cycles and workload counts,
// the op-local scratch reset, the task roll-up, and the IUStats sums.
// Op sizes run from empty through single-workload ops (where the state
// pins down each IU choice) to ops with more workloads than IUs (where
// the heap is built and then sifted).
func TestScheduleMatchesLinearScan(t *testing.T) {
	kinds := []setops.Op{setops.OpIntersect, setops.OpSubtract, setops.OpAntiSubtract}
	for _, numIUs := range []int{1, 2, 24, 48} {
		cfg := DefaultConfig()
		cfg.NumIUs = numIUs
		pe := NewPE(cfg, gen.Complete(4), nil, nil, nil)
		ref := &linearScanIUs{
			busy:   make([]mem.Cycles, numIUs),
			opBusy: make([]mem.Cycles, numIUs),
			wl:     make([]int, numIUs),
		}
		rng := rand.New(rand.NewSource(int64(numIUs)))
		for task := 0; task < 300; task++ {
			ops := 1 + rng.Intn(4)
			steps, total, wantTotal := 0, 0, 0
			for o := 0; o < ops; o++ {
				// Mostly small ops, some large enough to wrap every IU.
				maxLen := 12
				if rng.Intn(4) == 0 {
					maxLen = 400
				}
				op := mine.SetOpExec{
					Kind:  kinds[rng.Intn(len(kinds))],
					Short: randomSet(rng, rng.Intn(maxLen), 2000),
					Long:  randomSet(rng, rng.Intn(maxLen), 2000),
				}
				steps, total = pe.chargeOp(&op, steps, total)
				wantTotal += ref.op(cfg, op.Kind, op.Short, op.Long)
				if total != wantTotal {
					t.Fatalf("IUs=%d task %d op %d: %d workloads, reference %d", numIUs, task, o, total, wantTotal)
				}
				for i := 0; i < numIUs; i++ {
					if pe.iuBusy[i] != ref.busy[i] || pe.iuWl[i] != ref.wl[i] {
						t.Fatalf("IUs=%d task %d op %d: IU %d busy=%d wl=%d, reference busy=%d wl=%d",
							numIUs, task, o, i, pe.iuBusy[i], pe.iuWl[i], ref.busy[i], ref.wl[i])
					}
					if pe.opBusy[i] != 0 {
						t.Fatalf("IUs=%d task %d op %d: op scratch of IU %d not reset (%d)",
							numIUs, task, o, i, pe.opBusy[i])
					}
				}
			}
			used, busySum, maxBusy := pe.drainIUs()
			pe.stats.BusyIUCycles += busySum
			wUsed, wSum, wMax := ref.drain()
			if used != wUsed || busySum != wSum || maxBusy != wMax {
				t.Fatalf("IUs=%d task %d: drain (used %d, sum %d, max %d), reference (%d, %d, %d)",
					numIUs, task, used, busySum, maxBusy, wUsed, wSum, wMax)
			}
			for i := 0; i < numIUs; i++ {
				if pe.iuBusy[i] != 0 || pe.iuWl[i] != 0 {
					t.Fatalf("IUs=%d task %d: IU %d not reset after drain", numIUs, task, i)
				}
			}
		}
		got, want := pe.stats, ref.stats
		if got.BusyIUCycles != want.BusyIUCycles || got.AssignedIUCycles != want.AssignedIUCycles ||
			got.BalanceNum != want.BalanceNum || got.BalanceDen != want.BalanceDen {
			t.Errorf("IUs=%d: stats %+v, reference %+v", numIUs, got, want)
		}
	}
}
