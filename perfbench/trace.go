package main

import (
	"sort"
	"sync"
	"time"

	"fingers"
)

// spanLog keeps the traced run's spans in memory until the run ends:
// one span per call the benchmark makes into a layer, with the span
// that caused it as parent. A nil *spanLog records nothing, so the
// untraced runs that give the end-to-end metrics pay one nil check per
// call. Safe for concurrent use.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

type span struct {
	name, layer string
	parent      int // index into spans; -1 for a root
	start, end  time.Duration
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (l *spanLog) begin(name, layer string, parent int) int {
	if l == nil {
		return -1
	}
	now := time.Since(l.t0)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{name: name, layer: layer, parent: parent, start: now, end: now})
	return len(l.spans) - 1
}

// end closes the span opened by begin.
func (l *spanLog) end(id int) {
	if l == nil {
		return
	}
	now := time.Since(l.t0)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id].end = now
}

// add records a span whose bounds were measured elsewhere, such as the
// timestamps a fingersd job status reports.
func (l *spanLog) add(name, layer string, parent int, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{name: name, layer: layer, parent: parent,
		start: start.Sub(l.t0), end: end.Sub(l.t0)})
}

// subtree reports whether span i descends from (or is) root.
func (l *spanLog) subtree(i, root int) bool {
	for ; i >= 0; i = l.spans[i].parent {
		if i == root {
			return true
		}
	}
	return false
}

// total sums the durations of the spans named name under root.
func (l *spanLog) total(name string, root int) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	var d time.Duration
	for i, s := range l.spans {
		if s.name == name && l.subtree(i, root) {
			d += s.end - s.start
		}
	}
	return d
}

// selfTimes returns, per layer, the summed self time of the spans under
// root: each span's duration minus the part of it that its children
// cover. Concurrent children (two mining workers, two clients) are
// merged, so overlapping children are not subtracted twice.
func (l *spanLog) selfTimes(root int) map[string]time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range l.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range l.spans {
		if !l.subtree(i, root) {
			continue
		}
		var iv [][2]time.Duration
		for _, c := range children[i] {
			a, b := max(l.spans[c].start, s.start), min(l.spans[c].end, s.end)
			if b > a {
				iv = append(iv, [2]time.Duration{a, b})
			}
		}
		out[s.layer] += s.end - s.start - covered(iv)
	}
	return out
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum, hi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > hi {
			sum += x[1] - x[0]
			hi = x[1]
		} else if x[1] > hi {
			sum += x[1] - hi
			hi = x[1]
		}
	}
	return sum
}

// simCounts is the benchmark's fingers.Tracer: it counts the simulated
// events of Simulate calls. The façade runs shards one after another
// when a tracer is attached, so its methods are never called
// concurrently.
type simCounts struct {
	taskGroups   int64
	setOps       int64
	setOpElems   int64
	iuWorkloads  int64
	accesses     int64
	lines        int64
	misses       int64
	accessCycles int64
	bursts       int64
	burstBytes   int64
}

var _ fingers.Tracer = (*simCounts)(nil)

func (c *simCounts) TaskGroupBegin(pe, engine int, at fingers.Cycles, size int) { c.taskGroups++ }

func (c *simCounts) TaskGroupEnd(pe int, at fingers.Cycles) {}

func (c *simCounts) SetOpIssue(pe int, at fingers.Cycles, kind string, longLen, shortLen, workloads int) {
	c.setOps++
	c.setOpElems += int64(longLen + shortLen)
	c.iuWorkloads += int64(workloads)
}

func (c *simCounts) CacheAccess(pe int, at fingers.Cycles, bytes, lines, misses int64, done fingers.Cycles) {
	c.accesses++
	c.lines += lines
	c.misses += misses
	c.accessCycles += int64(done - at)
}

func (c *simCounts) DRAMBurst(start, done fingers.Cycles, addr, bytes int64) {
	c.bursts++
	c.burstBytes += bytes
}
