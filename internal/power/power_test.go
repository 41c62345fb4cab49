package power

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dimemas"
	"repro/internal/dvfs"
)

func mustNew(t *testing.T, cfg Config) *Model {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"default", DefaultConfig(), false},
		{"zero static", Config{ActivityRatio: 1.5, StaticFraction: 0}, false},
		{"high static", Config{ActivityRatio: 1.5, StaticFraction: 0.9}, false},
		{"ratio below one", Config{ActivityRatio: 0.5, StaticFraction: 0.2}, true},
		{"static one", Config{ActivityRatio: 1.5, StaticFraction: 1}, true},
		{"static negative", Config{ActivityRatio: 1.5, StaticFraction: -0.1}, true},
		{"bad nominal", Config{ActivityRatio: 1.5, StaticFraction: 0.2, Nominal: dvfs.Gear{Freq: -1, Volt: 1}}, true},
		{"zero config = default", Config{}, false},
		{"partial config", Config{StaticFraction: 0.2}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.cfg)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
	if got := mustNew(t, Config{}).Config(); got != DefaultConfig() {
		t.Errorf("New(Config{}) built %+v, want DefaultConfig() %+v", got, DefaultConfig())
	}
}

// TestAccountMatchesEnergyBreakdown checks that Account over a replay
// result is EnergyBreakdown over the equivalent Usage rows bit for bit —
// values and errors alike — on random results, gears and power scales,
// including rows with negative communication time, invalid gears and
// invalid scales.
func TestAccountMatchesEnergyBreakdown(t *testing.T) {
	m := mustNew(t, DefaultConfig())
	rng := rand.New(rand.NewSource(7))
	bad := []float64{-1, math.NaN(), math.Inf(1)}
	errRows := 0
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(8)
		res := &dimemas.Result{Time: 10 * rng.Float64(), Compute: make([]float64, n)}
		gears := make([]dvfs.Gear, n)
		var scale []float64
		if rng.Intn(3) > 0 {
			scale = make([]float64, n)
		}
		for r := 0; r < n; r++ {
			res.Compute[r] = res.Time * rng.Float64()
			gears[r] = dvfs.GearAt(0.4 + 2.2*rng.Float64())
			if scale != nil {
				scale[r] = 0.5 + 2*rng.Float64()
				if rng.Intn(4) == 0 {
					scale[r] = 0
				}
			}
			switch rng.Intn(40) {
			case 0:
				res.Compute[r] = res.Time * (1 + rng.Float64()) // negative comm
			case 1:
				gears[r] = dvfs.Gear{}
			case 2:
				if scale != nil {
					scale[r] = bad[rng.Intn(len(bad))]
				}
			}
		}
		rows := make([]Usage, n)
		for r := range rows {
			rows[r] = Usage{Gear: gears[r], ComputeTime: res.Compute[r], CommTime: res.Comm(r)}
			if scale != nil {
				rows[r].Scale = scale[r]
			}
		}
		want, wantErr := m.EnergyBreakdown(rows)
		got, gotErr := m.Account(res, gears, scale)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("trial %d: Account error %v, EnergyBreakdown error %v", trial, gotErr, wantErr)
		}
		if wantErr != nil {
			errRows++
			continue
		}
		if got != want {
			t.Fatalf("trial %d: Account %+v, EnergyBreakdown %+v", trial, got, want)
		}
	}
	if errRows == 0 {
		t.Error("no trial exercised an error row")
	}
	res := &dimemas.Result{Time: 1, Compute: []float64{0.5, 0.5}}
	if _, err := m.Account(res, []dvfs.Gear{dvfs.GearAt(2.3)}, nil); err == nil {
		t.Error("Account accepted 1 gear for 2 ranks")
	}
	if _, err := m.Account(res, []dvfs.Gear{dvfs.GearAt(2.3), dvfs.GearAt(2.3)}, []float64{1}); err == nil {
		t.Error("Account accepted 1 power scale for 2 ranks")
	}
}

func TestCalibration(t *testing.T) {
	// At the nominal gear while computing, the static share must equal the
	// configured fraction exactly (this is how the paper fixes α, §3.2).
	for _, s := range []float64{0, 0.1, 0.2, 0.5, 0.7, 0.9} {
		m := mustNew(t, Config{ActivityRatio: 1.5, StaticFraction: s})
		if got := m.StaticShareAtNominal(); math.Abs(got-s) > 1e-12 {
			t.Errorf("static fraction %v: calibrated share = %v", s, got)
		}
	}
}

func TestDynamicPowerFollowsFV2(t *testing.T) {
	m := mustNew(t, DefaultConfig())
	g1 := dvfs.GearAt(2.3) // 1.5 V
	g2 := dvfs.GearAt(0.8) // 1.0 V
	// Ratio of dynamic powers = (f1·V1²)/(f2·V2²).
	want := (2.3 * 1.5 * 1.5) / (0.8 * 1.0 * 1.0)
	got := m.Dynamic(Compute, g1) / m.Dynamic(Compute, g2)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("dynamic power ratio = %v, want %v", got, want)
	}
}

func TestActivityRatio(t *testing.T) {
	m := mustNew(t, DefaultConfig())
	g := dvfs.GearAt(1.4)
	got := m.Dynamic(Compute, g) / m.Dynamic(Comm, g)
	if math.Abs(got-1.5) > 1e-12 {
		t.Errorf("activity ratio = %v, want 1.5", got)
	}
}

func TestStaticLinearInVoltage(t *testing.T) {
	m := mustNew(t, DefaultConfig())
	s1 := m.Static(dvfs.Gear{Freq: 1, Volt: 1.0})
	s2 := m.Static(dvfs.Gear{Freq: 1, Volt: 1.5})
	if math.Abs(s2/s1-1.5) > 1e-12 {
		t.Errorf("static power not linear in V: %v vs %v", s1, s2)
	}
}

func TestEnergyAccounting(t *testing.T) {
	m := mustNew(t, DefaultConfig())
	g := dvfs.GearAt(2.3)
	u := []Usage{{Gear: g, ComputeTime: 2, CommTime: 1}}
	b, err := m.EnergyBreakdown(u)
	if err != nil {
		t.Fatal(err)
	}
	wantDynComp := m.Dynamic(Compute, g) * 2
	wantDynComm := m.Dynamic(Comm, g) * 1
	wantStatic := m.Static(g) * 3
	if math.Abs(b.DynamicCompute-wantDynComp) > 1e-12 ||
		math.Abs(b.DynamicComm-wantDynComm) > 1e-12 ||
		math.Abs(b.Static-wantStatic) > 1e-12 {
		t.Errorf("breakdown = %+v", b)
	}
	e, err := m.Energy(u)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-b.Total()) > 1e-12 {
		t.Errorf("Energy %v != breakdown total %v", e, b.Total())
	}
}

func TestEnergyValidation(t *testing.T) {
	m := mustNew(t, DefaultConfig())
	if _, err := m.Energy([]Usage{{Gear: dvfs.GearAt(2.3), ComputeTime: -1}}); err == nil {
		t.Error("negative compute time should error")
	}
	if _, err := m.Energy([]Usage{{Gear: dvfs.Gear{}, ComputeTime: 1}}); err == nil {
		t.Error("zero gear should error")
	}
	if e, err := m.Energy(nil); err != nil || e != 0 {
		t.Errorf("empty usage: e=%v err=%v", e, err)
	}
}

func TestPhaseString(t *testing.T) {
	if Compute.String() != "compute" || Comm.String() != "comm" {
		t.Error("phase strings wrong")
	}
	if Phase(9).String() == "" {
		t.Error("unknown phase should still render")
	}
}

// The headline mechanism of the paper: running a lightly loaded rank at a
// lower gear while it would otherwise idle at the top gear must save energy
// under the baseline configuration.
func TestLowerGearSavesEnergy(t *testing.T) {
	m := mustNew(t, DefaultConfig())
	total := 10.0
	// Original: compute 5s at top, wait 5s at top.
	orig := []Usage{{Gear: dvfs.GearAt(2.3), ComputeTime: 5, CommTime: 5}}
	// Balanced: compute stretched to 10s at 0.8 GHz (β=1 would give exactly
	// this shape; the precise stretch does not matter for the comparison).
	slow := []Usage{{Gear: dvfs.GearAt(0.8), ComputeTime: total, CommTime: 0}}
	e0, err := m.Energy(orig)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := m.Energy(slow)
	if err != nil {
		t.Fatal(err)
	}
	if e1 >= e0 {
		t.Errorf("slow gear should save energy: %v >= %v", e1, e0)
	}
}

// Property: power is strictly increasing in frequency along the DVFS voltage
// line, in both phases.
func TestPowerMonotonicProperty(t *testing.T) {
	m := mustNew(t, DefaultConfig())
	prop := func(f1Raw, f2Raw float64) bool {
		f1 := 0.4 + math.Mod(math.Abs(f1Raw), 2.2)
		f2 := 0.4 + math.Mod(math.Abs(f2Raw), 2.2)
		if f1 == f2 {
			return true
		}
		lo, hi := math.Min(f1, f2), math.Max(f1, f2)
		return m.Power(Compute, dvfs.GearAt(lo)) < m.Power(Compute, dvfs.GearAt(hi)) &&
			m.Power(Comm, dvfs.GearAt(lo)) < m.Power(Comm, dvfs.GearAt(hi))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: energy is additive across usage rows.
func TestEnergyAdditiveProperty(t *testing.T) {
	m := mustNew(t, DefaultConfig())
	prop := func(c1, w1, c2, w2 float64) bool {
		u1 := Usage{Gear: dvfs.GearAt(1.4), ComputeTime: math.Abs(math.Mod(c1, 10)), CommTime: math.Abs(math.Mod(w1, 10))}
		u2 := Usage{Gear: dvfs.GearAt(2.0), ComputeTime: math.Abs(math.Mod(c2, 10)), CommTime: math.Abs(math.Mod(w2, 10))}
		eBoth, err1 := m.Energy([]Usage{u1, u2})
		eA, err2 := m.Energy([]Usage{u1})
		eB, err3 := m.Energy([]Usage{u2})
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return math.Abs(eBoth-(eA+eB)) < 1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: raising the static fraction raises normalized energy of a
// DVFS-scaled run (static power cannot be scaled away by slowing down) —
// the trend behind Figure 6.
func TestStaticFractionReducesSavingsProperty(t *testing.T) {
	usageAt := func(m *Model) (orig, slow float64) {
		o := []Usage{{Gear: dvfs.GearAt(2.3), ComputeTime: 5, CommTime: 5}}
		sl := []Usage{{Gear: dvfs.GearAt(0.8), ComputeTime: 10, CommTime: 0}}
		e0, err := m.Energy(o)
		if err != nil {
			panic(err)
		}
		e1, err := m.Energy(sl)
		if err != nil {
			panic(err)
		}
		return e0, e1
	}
	prev := -1.0
	for _, s := range []float64{0, 0.2, 0.4, 0.6, 0.8} {
		m := mustNew(t, Config{ActivityRatio: 1.5, StaticFraction: s})
		e0, e1 := usageAt(m)
		norm := e1 / e0
		if norm <= prev {
			t.Errorf("normalized energy should grow with static fraction: s=%v norm=%v prev=%v", s, norm, prev)
		}
		prev = norm
	}
}
