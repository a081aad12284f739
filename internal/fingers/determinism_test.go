package fingers

import (
	"testing"

	"fingers/internal/accel"
	"fingers/internal/flexminer"
	"fingers/internal/graph/gen"
)

// TestSimulationDeterministic re-runs identical chip configurations and
// requires identical cycle counts, counts and cache statistics: the
// event-ordered simulation has no hidden nondeterminism, so experiments
// are exactly reproducible.
func TestSimulationDeterministic(t *testing.T) {
	g := gen.PowerLawCluster(300, 5, 0.6, 71)
	pls := plansFor(t, "tt")
	run := func() (a, b interface{}) {
		fi := mustChip(t, DefaultConfig(), 4, 0, g, pls).Run()
		fm := mustFlexChip(t, flexminer.DefaultConfig(), 4, 0, g, pls).Run()
		return fi, fm
	}
	fi1, fm1 := run()
	fi2, fm2 := run()
	if fi1 != fi2 {
		t.Errorf("FINGERS runs differ:\n%+v\n%+v", fi1, fi2)
	}
	if fm1 != fm2 {
		t.Errorf("FlexMiner runs differ:\n%+v\n%+v", fm1, fm2)
	}
}

// TestCustomRootOrder: a chip built with a permuted root order finds the
// same embeddings (counts are order-independent), and the run under that
// order is itself deterministic.
func TestCustomRootOrder(t *testing.T) {
	g := gen.PowerLawCluster(250, 4, 0.5, 41)
	pls := plansFor(t, "tt")
	base := mustChip(t, DefaultConfig(), 4, 0, g, pls).Run()

	order := make([]uint32, g.NumVertices())
	for i := range order {
		order[i] = uint32(len(order) - 1 - i) // reverse-ID handout
	}
	mk := func() *Chip {
		return NewChipWithScheduler(DefaultConfig(), 4, 0, g, pls,
			accel.NewRootSchedulerWithOrder(order))
	}
	first := mk().Run()
	if first.Count != base.Count {
		t.Errorf("custom order changed the count: %d vs %d", first.Count, base.Count)
	}
	if again := mk().Run(); again != first {
		t.Errorf("custom order runs differ:\n%+v\n%+v", first, again)
	}
}

// TestTasksMatchAcrossDesigns: both designs execute the same plans, so
// they perform the same number of extension tasks regardless of PE count
// or scheduling order.
func TestTasksMatchAcrossDesigns(t *testing.T) {
	g := gen.PowerLawCluster(300, 5, 0.6, 73)
	for _, name := range []string{"tc", "tt", "cyc"} {
		pls := plansFor(t, name)
		fi1 := mustChip(t, DefaultConfig(), 1, 0, g, pls).Run()
		fi8 := mustChip(t, DefaultConfig(), 8, 0, g, pls).Run()
		fm := mustFlexChip(t, flexminer.DefaultConfig(), 3, 0, g, pls).Run()
		if fi1.Tasks != fi8.Tasks || fi1.Tasks != fm.Tasks {
			t.Errorf("%s: task counts diverge: %d / %d / %d", name, fi1.Tasks, fi8.Tasks, fm.Tasks)
		}
	}
}

// TestTinyPrivateCacheStillCorrect drives the spill path.
func TestTinyPrivateCacheStillCorrect(t *testing.T) {
	g := gen.PowerLawCluster(300, 8, 0.5, 79)
	pls := plansFor(t, "tt")
	want := mustChip(t, DefaultConfig(), 1, 0, g, pls).Run()
	cfg := DefaultConfig()
	cfg.PrivateCacheBytes = 64
	small := mustChip(t, cfg, 1, 0, g, pls).Run()
	if small.Count != want.Count {
		t.Fatalf("spill path changed the answer: %d vs %d", small.Count, want.Count)
	}
	if small.Cycles < want.Cycles {
		t.Errorf("spilling should not be faster: %d < %d", small.Cycles, want.Cycles)
	}
}

// TestDegenerateConfigs exercises boundary configurations.
func TestDegenerateConfigs(t *testing.T) {
	g := gen.PowerLawCluster(150, 4, 0.5, 83)
	pls := plansFor(t, "tc")
	want := mustChip(t, DefaultConfig(), 1, 0, g, pls).Run().Count
	cases := []Config{
		DefaultConfig().WithIUs(1),
		DefaultConfig().WithIUsUnlimited(64),
		func() Config { c := DefaultConfig(); c.MaxLoad = 1; return c }(),
		func() Config { c := DefaultConfig(); c.NumDividers = 1; return c }(),
		func() Config { c := DefaultConfig(); c.MaxGroupSize = 1; return c }(),
		func() Config { c := DefaultConfig(); c.LongSegLen = 1; c.ShortSegLen = 1; return c }(),
	}
	for i, cfg := range cases {
		res := mustChip(t, cfg, 2, 0, g, pls).Run()
		if res.Count != want {
			t.Errorf("config %d: count %d, want %d", i, res.Count, want)
		}
		if res.Cycles <= 0 {
			t.Errorf("config %d: no cycles", i)
		}
	}
}
