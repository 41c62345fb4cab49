package gearopt

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/dimemas"
	"repro/internal/dvfs"
	"repro/internal/trace"
	"repro/internal/workload"
)

func testTraces(t *testing.T) []*trace.Trace {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Iterations = 4
	cfg.SkipPECalibration = true
	var out []*trace.Trace
	for _, name := range []string{"BT-MZ-32", "IS-32", "MG-32"} {
		inst, err := workload.FindInstance(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := workload.Generate(inst, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tr)
	}
	return out
}

func TestOptimizeValidation(t *testing.T) {
	if _, err := Optimize(Config{}); err == nil {
		t.Error("no traces should fail")
	}
	trs := testTraces(t)
	if _, err := Optimize(Config{Traces: trs, NGears: 1}); err == nil {
		t.Error("1 gear should fail")
	}
	if _, err := Optimize(Config{Traces: trs, NGears: 4, Grid: -1}); err == nil {
		t.Error("negative grid should fail")
	}
}

func TestOptimizeImprovesOnUniform(t *testing.T) {
	trs := testTraces(t)
	res, err := Optimize(Config{Traces: trs, NGears: 4, Grid: 0.1, MaxRounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Structure: n gears, ascending, top pinned at fmax.
	gears := res.Set.Gears()
	if len(gears) != 4 {
		t.Fatalf("%d gears", len(gears))
	}
	for i := 1; i < len(gears); i++ {
		if gears[i].Freq <= gears[i-1].Freq {
			t.Errorf("gears not ascending: %v", gears)
		}
	}
	if math.Abs(gears[3].Freq-dvfs.FMax) > 1e-9 {
		t.Errorf("top gear = %v, want fmax", gears[3])
	}
	// The search starts from uniform, so it can only improve or match the
	// uniform placement under the full scoring too (small tolerance for
	// the search-time approximation).
	if res.Energy > res.UniformEnergy+0.01 {
		t.Errorf("optimized %.4f worse than uniform %.4f", res.Energy, res.UniformEnergy)
	}
	if res.Evaluations <= 0 || res.Rounds < 0 {
		t.Errorf("bookkeeping: %+v", res)
	}
	if res.SearchEnergy <= 0 || res.SearchEnergy > 1 {
		t.Errorf("search energy %v out of range", res.SearchEnergy)
	}
	// The objective retimes the exact replay, so the search score must
	// equal the full-replay score bit-for-bit — the historical
	// approximation gap is gone.
	if res.SearchEnergy != res.Energy {
		t.Errorf("SearchEnergy %v != full-replay Energy %v (approximation gap)", res.SearchEnergy, res.Energy)
	}
}

func TestSearchEnergyEqualsFullReplayWithSharedCache(t *testing.T) {
	trs := testTraces(t)
	cache := dimemas.NewReplayCache()
	res, err := Optimize(Config{Traces: trs, NGears: 4, Grid: 0.1, MaxRounds: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if res.SearchEnergy != res.Energy {
		t.Errorf("cached: SearchEnergy %v != Energy %v", res.SearchEnergy, res.Energy)
	}
	// One baseline and one skeleton per trace.
	if got, want := cache.Len(), 2*len(trs); got != want {
		t.Errorf("cache holds %d entries, want %d (baseline + skeleton per trace)", got, want)
	}
	// The same search without a cache must land on the identical result:
	// retiming is bit-identical whether or not the skeleton is shared.
	uncached, err := Optimize(Config{Traces: trs, NGears: 4, Grid: 0.1, MaxRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if uncached.SearchEnergy != res.SearchEnergy || uncached.Energy != res.Energy {
		t.Errorf("uncached search diverged: %v/%v vs %v/%v",
			uncached.SearchEnergy, uncached.Energy, res.SearchEnergy, res.Energy)
	}
}

func TestFreshReplaysBitIdentical(t *testing.T) {
	// The default search scores candidates with delta retiming; the
	// FreshReplays cross-check pays a fresh SimulateMachine per candidate.
	// The two must agree bit-for-bit on every number the search reports.
	trs := testTraces(t)
	del, err := Optimize(Config{Traces: trs, NGears: 4, Grid: 0.1, MaxRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Optimize(Config{Traces: trs, NGears: 4, Grid: 0.1, MaxRounds: 2, FreshReplays: true})
	if err != nil {
		t.Fatal(err)
	}
	if del.SearchEnergy != fresh.SearchEnergy || del.Energy != fresh.Energy ||
		del.UniformEnergy != fresh.UniformEnergy || del.Evaluations != fresh.Evaluations ||
		del.Rounds != fresh.Rounds {
		t.Errorf("delta search diverged from FreshReplays:\n delta %+v\n fresh %+v", del, fresh)
	}
	dg, fg := del.Set.Gears(), fresh.Set.Gears()
	for i := range dg {
		if dg[i].Freq != fg[i].Freq {
			t.Errorf("gear %d: delta %v != fresh %v", i, dg[i].Freq, fg[i].Freq)
		}
	}
}

func TestOptimizeHonorsContext(t *testing.T) {
	trs := testTraces(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Optimize(Config{Traces: trs, NGears: 4, Grid: 0.1, Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled search returned %v, want context.Canceled", err)
	}
}

func TestOptimizedGearsSitBelowUniformForImbalancedApps(t *testing.T) {
	// With very imbalanced applications most ranks want low frequencies;
	// the optimizer should pull interior gears downward relative to the
	// uniform grid (toward where the demand is).
	cfg := workload.DefaultConfig()
	cfg.Iterations = 4
	cfg.SkipPECalibration = true
	inst, err := workload.FindInstance("BT-MZ-32")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Generate(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(Config{Traces: []*trace.Trace{tr}, NGears: 4, Grid: 0.1, MaxRounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	uniform, _ := dvfs.Uniform(4)
	var optMid, uniMid float64
	for i := 1; i < 3; i++ {
		optMid += res.Set.Gears()[i].Freq
		uniMid += uniform.Gears()[i].Freq
	}
	if optMid >= uniMid {
		t.Errorf("interior gears %.2f did not move below uniform %.2f for an imbalanced app", optMid/2, uniMid/2)
	}
}
