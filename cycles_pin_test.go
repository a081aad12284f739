package fingers_test

import (
	"testing"

	"fingers"
)

// TestSimulatedCyclesPinned pins the exact count and simulated cycles of
// small cells of every architecture. Simulated cycles are deterministic,
// so any change to the functional walk, the kernels or the timing models
// that moves a single cycle fails here; re-pin only for a change that
// means to move the model. The power-law graph has one dense-tier hub
// and a few bitmap rows, the random graph mostly bitmap rows, so the
// SISA cost model sees every storage tier.
func TestSimulatedCyclesPinned(t *testing.T) {
	graphs := map[string]*fingers.Graph{
		"plc": fingers.GeneratePowerLawCluster(1200, 4, 0.5, 3),
		"er":  fingers.GenerateErdosRenyi(300, 3000, 5),
	}
	cases := []struct {
		arch           fingers.Arch
		graph, pattern string
		pes            int
		count          uint64
		cycles         fingers.Cycles
	}{
		{fingers.ArchFingers, "plc", "tc", 1, 2139, 145562},
		{fingers.ArchFingers, "plc", "tc", 4, 2139, 37385},
		{fingers.ArchFingers, "plc", "tt", 1, 145836, 454478},
		{fingers.ArchFingers, "plc", "tt", 4, 145836, 115469},
		{fingers.ArchFingers, "plc", "dia", 1, 4975, 297020},
		{fingers.ArchFingers, "plc", "dia", 4, 4975, 76359},
		{fingers.ArchFlexMiner, "plc", "tc", 1, 2139, 372189},
		{fingers.ArchFlexMiner, "plc", "tc", 4, 2139, 94440},
		{fingers.ArchFlexMiner, "plc", "tt", 1, 145836, 1417132},
		{fingers.ArchFlexMiner, "plc", "tt", 4, 145836, 358607},
		{fingers.ArchFlexMiner, "plc", "dia", 1, 4975, 726126},
		{fingers.ArchFlexMiner, "plc", "dia", 4, 4975, 184334},
		{fingers.ArchSISA, "plc", "tc", 1, 2139, 369075},
		{fingers.ArchSISA, "plc", "tc", 4, 2139, 93666},
		{fingers.ArchSISA, "plc", "tt", 1, 145836, 1247137},
		{fingers.ArchSISA, "plc", "tt", 4, 145836, 316060},
		{fingers.ArchSISA, "plc", "dia", 1, 4975, 619631},
		{fingers.ArchSISA, "plc", "dia", 4, 4975, 157799},
		{fingers.ArchFingers, "er", "tc", 1, 1329, 94103},
		{fingers.ArchFingers, "er", "tc", 4, 1329, 25052},
		{fingers.ArchFingers, "er", "tt", 1, 68542, 337054},
		{fingers.ArchFingers, "er", "tt", 4, 68542, 86762},
		{fingers.ArchFingers, "er", "dia", 1, 2379, 203634},
		{fingers.ArchFingers, "er", "dia", 4, 2379, 52739},
		{fingers.ArchFlexMiner, "er", "tc", 1, 1329, 232751},
		{fingers.ArchFlexMiner, "er", "tc", 4, 1329, 59070},
		{fingers.ArchFlexMiner, "er", "tt", 1, 68542, 938979},
		{fingers.ArchFlexMiner, "er", "tt", 4, 68542, 238645},
		{fingers.ArchFlexMiner, "er", "dia", 1, 2379, 423528},
		{fingers.ArchFlexMiner, "er", "dia", 4, 2379, 107652},
		{fingers.ArchSISA, "er", "tc", 1, 1329, 175499},
		{fingers.ArchSISA, "er", "tc", 4, 1329, 44689},
		{fingers.ArchSISA, "er", "tt", 1, 68542, 611334},
		{fingers.ArchSISA, "er", "tt", 4, 68542, 156167},
		{fingers.ArchSISA, "er", "dia", 1, 2379, 280832},
		{fingers.ArchSISA, "er", "dia", 4, 2379, 71895},
	}
	plans := map[string]*fingers.Plan{}
	for _, c := range cases {
		pl := plans[c.pattern]
		if pl == nil {
			p, err := fingers.PatternByName(c.pattern)
			if err != nil {
				t.Fatal(err)
			}
			if pl, err = fingers.CompilePlan(p, fingers.PlanOptions{}); err != nil {
				t.Fatal(err)
			}
			plans[c.pattern] = pl
		}
		rep, err := fingers.Simulate(c.arch, graphs[c.graph], []*fingers.Plan{pl}, fingers.WithPEs(c.pes))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Result.Count != c.count || rep.Result.Cycles != c.cycles {
			t.Errorf("%v %s/%s %d PEs: count %d cycles %d, pinned count %d cycles %d",
				c.arch, c.graph, c.pattern, c.pes, rep.Result.Count, rep.Result.Cycles, c.count, c.cycles)
		}
	}
}
