package fingers

import (
	"context"
	"errors"
	"testing"

	"fingers/internal/accel"
	"fingers/internal/flexminer"
	"fingers/internal/graph"
	"fingers/internal/graph/gen"
	"fingers/internal/mem"
	"fingers/internal/plan"
	"fingers/internal/simerr"
	"fingers/internal/telemetry"
)

// panicTracer injects a fault inside PE steps: the first task-group
// event panics, standing in for a defect anywhere in the step path.
type panicTracer struct{ armed bool }

var _ telemetry.Tracer = (*panicTracer)(nil)

func (p *panicTracer) TaskGroupBegin(pe, engine int, at mem.Cycles, size int) {
	if p.armed {
		panic("injected tracer fault")
	}
}
func (p *panicTracer) TaskGroupEnd(pe int, at mem.Cycles) {}
func (p *panicTracer) SetOpIssue(pe int, at mem.Cycles, kind string, longLen, shortLen, workloads int) {
}
func (p *panicTracer) CacheAccess(pe int, at mem.Cycles, bytes, lines, misses int64, done mem.Cycles) {
}
func (p *panicTracer) DRAMBurst(start, done mem.Cycles, addr, bytes int64) {}

func TestChipRunCtxMatchesRun(t *testing.T) {
	g := gen.PowerLawCluster(200, 4, 0.5, 31)
	pls := plansFor(t, "tt")
	want := mustChip(t, DefaultConfig(), 4, 0, g, pls).Run()
	got, err := mustChip(t, DefaultConfig(), 4, 0, g, pls).RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("RunCtx result diverges from Run:\n%+v\n%+v", got, want)
	}
}

func TestChipRunCtxAlreadyCancelled(t *testing.T) {
	g := gen.PowerLawCluster(200, 4, 0.5, 31)
	pls := plansFor(t, "tc")
	chip := mustChip(t, DefaultConfig(), 2, 0, g, pls)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := chip.RunCtx(ctx)
	if err == nil {
		t.Fatal("expected a cancellation error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	se, ok := simerr.As(err)
	if !ok || se.Engine != "serial" || !se.IsCancellation() {
		t.Errorf("error %v is not a serial-engine cancellation SimError", err)
	}
	if res.Cycles != 0 {
		t.Errorf("cycles before any step = %d, want 0", res.Cycles)
	}
	if chip.RootsDispatched() != 0 {
		t.Errorf("roots dispatched before any step = %d", chip.RootsDispatched())
	}
}

func TestChipRunCtxCancelMidRun(t *testing.T) {
	g := gen.PowerLawCluster(400, 5, 0.6, 37)
	pls := plansFor(t, "tt")
	chip := mustChip(t, DefaultConfig(), 4, 0, g, pls)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var steps int64
	res, err := chip.RunCtxWithProgress(ctx, 1, func(p accel.Progress) {
		steps = p.Steps
		if steps == 500 {
			cancel()
		}
	})
	if err == nil {
		t.Fatal("expected a cancellation error")
	}
	se, ok := simerr.As(err)
	if !ok || !se.IsCancellation() {
		t.Fatalf("error %v is not a cancellation SimError", err)
	}
	// The engine must stop within one cancellation quantum of the cancel.
	if steps > 500+accel.CancelCheckQuantum {
		t.Errorf("engine ran to step %d, want <= %d", steps, 500+accel.CancelCheckQuantum)
	}
	if res.Cycles == 0 {
		t.Error("partial result is missing its simulated horizon")
	}
	total, done := chip.RootsTotal(), chip.RootsDispatched()
	if total != g.NumVertices() {
		t.Errorf("RootsTotal = %d, want %d", total, g.NumVertices())
	}
	if done == 0 || done >= total {
		t.Errorf("roots dispatched = %d/%d, want a strict partial prefix", done, total)
	}
}

func TestChipPanicSurfacesAsSimErrorSerial(t *testing.T) {
	g := gen.PowerLawCluster(200, 4, 0.5, 47)
	pls := plansFor(t, "tc")
	chip := mustChip(t, DefaultConfig(), 2, 0, g, pls)
	tr := &panicTracer{armed: true}
	chip.SetTracer(tr)
	_, err := chip.RunCtx(context.Background())
	if err == nil {
		t.Fatal("expected the injected panic to surface as an error")
	}
	se, ok := simerr.As(err)
	if !ok {
		t.Fatalf("error %T is not a *simerr.SimError", err)
	}
	if se.Engine != "serial" || se.PE < 0 {
		t.Errorf("SimError = %+v, want serial engine with PE attribution", se)
	}
	if se.IsCancellation() {
		t.Error("a panic must not be classified as cancellation")
	}
}

// TestNewChipErrValidation: both models' constructors reject degenerate
// arguments with an error instead of building a chip that silently mines
// nothing.
func TestNewChipErrValidation(t *testing.T) {
	g := gen.PowerLawCluster(50, 3, 0.5, 59)
	pls := plansFor(t, "tc")
	models := []struct {
		name string
		mk   func(pes int, g *graph.Graph, pls []*plan.Plan) (bool, error)
	}{
		{"fingers", func(pes int, g *graph.Graph, pls []*plan.Plan) (bool, error) {
			c, err := NewChipErr(DefaultConfig(), pes, 0, g, pls)
			return c != nil, err
		}},
		{"flexminer", func(pes int, g *graph.Graph, pls []*plan.Plan) (bool, error) {
			c, err := flexminer.NewChipErr(flexminer.DefaultConfig(), pes, 0, g, pls)
			return c != nil, err
		}},
	}
	for _, m := range models {
		for _, pes := range []int{0, -3} {
			if _, err := m.mk(pes, g, pls); err == nil {
				t.Errorf("%s: %d PEs: expected an error", m.name, pes)
			}
		}
		if _, err := m.mk(2, nil, pls); err == nil {
			t.Errorf("%s: nil graph: expected an error", m.name)
		}
		if _, err := m.mk(2, g, nil); err == nil {
			t.Errorf("%s: no plans: expected an error", m.name)
		}
		if ok, err := m.mk(2, g, pls); err != nil || !ok {
			t.Errorf("%s: valid args: err = %v", m.name, err)
		}
	}
}
