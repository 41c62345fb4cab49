package repro

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dimemas"
	"repro/internal/dvfs"
	"repro/internal/gearopt"
	"repro/internal/jitter"
	"repro/internal/phased"
	"repro/internal/power"
	"repro/internal/powercap"
	"repro/internal/rebalance"
	"repro/internal/workload"
)

var updateDecisions = flag.Bool("update", false, "rewrite testdata/decisions.golden")

// goldenTrace generates a quick (uncalibrated) trace of app at nprocs.
func goldenTrace(t *testing.T, app string, nprocs, iterations int) *Trace {
	t.Helper()
	inst, err := workload.InstanceFor(app, nprocs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultConfig()
	cfg.Iterations = iterations
	cfg.SkipPECalibration = true
	tr, err := workload.Generate(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// goldenMachines returns the two machines every Machine-aware layer is
// pinned on: the flat default platform (nil) and a capability machine whose
// ranks draw unequal power and where every fourth rank (the critical rank 3
// among them) has a 1.8 GHz ceiling.
func goldenMachines(n int) []struct {
	name string
	m    *dimemas.Machine
} {
	c := &dimemas.Capability{PowerScale: make([]float64, n), FMax: make([]float64, n)}
	for r := 0; r < n; r++ {
		c.PowerScale[r] = 1 + 0.25*float64(r%4)
		if r%4 == 3 {
			c.FMax[r] = 1.8
		}
	}
	return []struct {
		name string
		m    *dimemas.Machine
	}{{"flat", nil}, {"hetero", &dimemas.Machine{Cap: c}}}
}

// computePeak is the all-ranks-computing power at FMax on machine m.
func computePeak(t *testing.T, m *dimemas.Machine, n int) float64 {
	t.Helper()
	pm, err := power.New(power.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := pm.Power(power.Compute, dvfs.GearAt(dvfs.FMax))
	var sum float64
	for r := 0; r < n; r++ {
		k := 1.0
		if m != nil {
			k = m.Cap.PowerScale[r]
		}
		sum += k * p
	}
	return sum
}

// TestDecisionLayersGolden pins the exact outputs of every decision layer —
// offline analysis (single and batched), the gear-placement search, the
// power-cap scheduler, the online rebalancing loop, the Jitter emulation
// and the per-phase analysis — on small quick traces, flat and on one
// heterogeneous capability machine. encoding/json writes the shortest text
// that round-trips each float64, so a one-bit change in any time, energy or
// power shows up as a changed line. Rewrite with -update.
func TestDecisionLayersGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden decision matrix skipped in -short mode")
	}
	is := goldenTrace(t, "IS", 32, 4)
	cg := goldenTrace(t, "CG", 32, 3)
	pepc := goldenTrace(t, "PEPC", 32, 2)
	n := is.NumRanks()
	six, err := dvfs.Uniform(6)
	if err != nil {
		t.Fatal(err)
	}
	oc, err := six.WithOverclockGear(OverclockGear())
	if err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	emit := func(name string, v any) {
		t.Helper()
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&out, "%s %s\n", name, b)
	}

	for _, mc := range goldenMachines(n) {
		for _, alg := range []struct {
			name string
			alg  core.Algorithm
			set  *dvfs.Set
		}{{"max", core.MAX, six}, {"avg", core.AVG, oc}} {
			res, err := analysis.Run(analysis.Config{Trace: is, Machine: mc.m, Set: alg.set, Algorithm: alg.alg})
			if err != nil {
				t.Fatal(err)
			}
			emit("analysis/"+alg.name+"/"+mc.name, res)
		}

		items := []analysis.BatchItem{
			{Set: six, Algorithm: core.MAX},
			{Set: oc, Algorithm: core.AVG},
			{Set: dvfs.ContinuousLimited(), Algorithm: core.MAX, Rounding: core.RoundNearest},
			{Set: nil},
		}
		results, errs, err := analysis.RunBatch(analysis.Config{Trace: is, Machine: mc.m, Cache: dimemas.NewReplayCache()}, items)
		if err != nil {
			t.Fatal(err)
		}
		for i := range items {
			if errs[i] != nil {
				emit(fmt.Sprintf("analysis/batch/%d/%s", i, mc.name), errs[i].Error())
				continue
			}
			emit(fmt.Sprintf("analysis/batch/%d/%s", i, mc.name), results[i])
		}

		g, err := gearopt.Optimize(gearopt.Config{Traces: []*Trace{is, cg}, Machine: mc.m, NGears: 4, Grid: 0.1, MaxRounds: 2})
		if err != nil {
			t.Fatal(err)
		}
		emit("gearopt/"+mc.name, struct {
			Gears []dvfs.Gear
			*gearopt.Result
		}{g.Set.Gears(), g})

		peak := computePeak(t, mc.m, n)
		for _, pc := range []struct {
			name string
			kind powercap.CapKind
			cap  float64
		}{{"peak", powercap.CapPeak, 0.6 * peak}, {"average", powercap.CapAverage, 0.45 * peak}} {
			res, err := powercap.Run(powercap.Config{Trace: is, Machine: mc.m, Set: six, Cap: pc.cap, Kind: pc.kind})
			if err != nil {
				t.Fatal(err)
			}
			emit("powercap/"+pc.name+"/"+mc.name, res)
		}

		for p := rebalance.PolicyNever; p <= rebalance.PolicyPredictiveCapped; p++ {
			for _, exact := range []bool{false, true} {
				cfg := goldenRebalanceConfig(is, mc.m, six, p, peak)
				cfg.ExactPeaks = exact
				res, err := rebalance.Run(cfg)
				if err != nil {
					t.Fatalf("%s/%v: %v", mc.name, p, err)
				}
				emit(fmt.Sprintf("rebalance/%s/exact=%t/%s", p, exact, mc.name), res)
			}
		}
		cfg := goldenRebalanceConfig(is, mc.m, six, rebalance.PolicyEveryK, peak)
		cfg.ReassignOverhead = 5e-3
		res, err := rebalance.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		emit("rebalance/every-k/overhead/"+mc.name, res)
	}

	jr, err := jitter.Run(jitter.Config{Trace: is, Set: six})
	if err != nil {
		t.Fatal(err)
	}
	emit("jitter", jr)
	pr, err := phased.Run(phased.Config{Trace: pepc, Set: six})
	if err != nil {
		t.Fatal(err)
	}
	emit("phased", pr)

	path := filepath.Join("testdata", "decisions.golden")
	if *updateDecisions {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(out.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("%d golden lines, want %d", len(gotLines), len(wantLines))
	}
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d differs:\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
}

// goldenRebalanceConfig is the drifting closed-loop scenario of the golden
// matrix: a ramp with jitter that makes every reactive policy re-solve.
func goldenRebalanceConfig(tr *Trace, m *dimemas.Machine, set *dvfs.Set, p rebalance.Policy, peak float64) rebalance.Config {
	cfg := rebalance.Config{
		Trace:      tr,
		Machine:    m,
		Set:        set,
		Policy:     p,
		Iterations: 8,
		Period:     2,
		Threshold:  0.01,
		Margin:     0.1,
		Drift:      workload.Drift{Kind: workload.DriftRamp, Magnitude: 0.4, Jitter: 0.03, Seed: 11},
	}
	if p == rebalance.PolicyCapped || p == rebalance.PolicyPredictiveCapped {
		cfg.Cap = 0.7 * peak
		cfg.Margin = 0
	}
	if p != rebalance.PolicyEveryK {
		cfg.Period = 0
	}
	return cfg
}
