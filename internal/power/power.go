// Package power implements the paper's CPU power model (§3.2) and the energy
// accounting used by every experiment.
//
// Dynamic power: P_dyn = A·C·f·V² (eq. 1), where the activity factor A
// differs between computation and communication phases; the paper assumes a
// computation/communication activity ratio of 1.5 and sweeps 1.5–3.0 in
// §5.3.5.
//
// Static power: P_static = α·V (eq. 2). α is calibrated so that static power
// is a configured fraction (default 20 %) of total CPU power when the CPU
// computes at the nominal top gear; §5.3.4 sweeps the fraction 0–90 %.
//
// Absolute watts are arbitrary (the paper reports only normalized energy), so
// the model normalizes A_comm·C = 1 and everything cancels in the ratios.
package power

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dimemas"
	"repro/internal/dvfs"
)

// Defaults from the paper's baseline configuration.
const (
	DefaultActivityRatio  = 1.5
	DefaultStaticFraction = 0.20
)

// Phase distinguishes what the CPU is doing for activity-factor purposes.
type Phase int

const (
	// Compute is a computation burst (high activity factor).
	Compute Phase = iota
	// Comm is communication or blocked-in-MPI time (low activity factor).
	Comm
)

func (p Phase) String() string {
	switch p {
	case Compute:
		return "compute"
	case Comm:
		return "comm"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Config parameterizes a power model.
type Config struct {
	// ActivityRatio is A_compute / A_communication (≥ 1 in practice).
	ActivityRatio float64
	// StaticFraction is the share of static power in total CPU power when
	// computing at the nominal gear, in [0, 1).
	StaticFraction float64
	// Nominal is the calibration gear; zero value means (FMax, V(FMax)).
	Nominal dvfs.Gear
}

// DefaultConfig returns the paper's baseline: ratio 1.5, static 20 %,
// nominal gear (2.3 GHz, 1.5 V).
func DefaultConfig() Config {
	return Config{
		ActivityRatio:  DefaultActivityRatio,
		StaticFraction: DefaultStaticFraction,
		Nominal:        dvfs.GearAt(dvfs.FMax),
	}
}

// Model computes CPU power and energy. Create with New.
type Model struct {
	cfg   Config
	aComp float64 // activity factor during computation (A_comm ≡ 1)
	alpha float64 // static power coefficient
}

var (
	// ErrBadRatio reports an activity ratio below 1 or non-finite.
	ErrBadRatio = errors.New("power: activity ratio must be >= 1")
	// ErrBadStatic reports a static fraction outside [0, 1).
	ErrBadStatic = errors.New("power: static fraction must be in [0, 1)")
)

// New builds and calibrates a model. The zero Config is DefaultConfig();
// any other config is validated as given, with a zero Nominal meaning the
// FMax gear.
func New(cfg Config) (*Model, error) {
	if cfg == (Config{}) {
		cfg = DefaultConfig()
	}
	if cfg.Nominal.Freq == 0 {
		cfg.Nominal = dvfs.GearAt(dvfs.FMax)
	}
	if cfg.ActivityRatio < 1 || math.IsNaN(cfg.ActivityRatio) || math.IsInf(cfg.ActivityRatio, 0) {
		return nil, fmt.Errorf("%w (got %v)", ErrBadRatio, cfg.ActivityRatio)
	}
	if cfg.StaticFraction < 0 || cfg.StaticFraction >= 1 || math.IsNaN(cfg.StaticFraction) {
		return nil, fmt.Errorf("%w (got %v)", ErrBadStatic, cfg.StaticFraction)
	}
	if cfg.Nominal.Freq <= 0 || cfg.Nominal.Volt <= 0 {
		return nil, fmt.Errorf("power: invalid nominal gear %v", cfg.Nominal)
	}
	m := &Model{cfg: cfg, aComp: cfg.ActivityRatio}
	// Calibrate α: static = s · (static + dynamic_compute) at the nominal
	// gear ⇒ α·V = s/(1−s) · A_comp·f·V².
	dyn := m.aComp * cfg.Nominal.Freq * cfg.Nominal.Volt * cfg.Nominal.Volt
	s := cfg.StaticFraction
	m.alpha = s / (1 - s) * dyn / cfg.Nominal.Volt
	return m, nil
}

// Config returns the configuration the model was built from.
func (m *Model) Config() Config { return m.cfg }

// Alpha returns the calibrated static-power coefficient (for reports/tests).
func (m *Model) Alpha() float64 { return m.alpha }

// Dynamic returns the dynamic power A·C·f·V² in model units.
func (m *Model) Dynamic(p Phase, g dvfs.Gear) float64 {
	a := 1.0
	if p == Compute {
		a = m.aComp
	}
	return a * g.Freq * g.Volt * g.Volt
}

// Static returns the static power α·V in model units.
func (m *Model) Static(g dvfs.Gear) float64 { return m.alpha * g.Volt }

// Power returns total (dynamic + static) power in phase p at gear g.
func (m *Model) Power(p Phase, g dvfs.Gear) float64 {
	return m.Dynamic(p, g) + m.Static(g)
}

// Usage describes one CPU's activity over a run: the gear it was pinned to,
// how long it computed, and how long it communicated or waited. The paper
// assigns one gear per process for the whole execution, so a single Usage
// row per rank suffices.
type Usage struct {
	Gear        dvfs.Gear
	ComputeTime float64 // seconds spent in computation at Gear
	CommTime    float64 // seconds spent communicating / blocked in MPI
	// Scale multiplies this CPU's modeled power draw — the capability
	// layer's per-rank multiplier (dimemas.Capability.PowerScale) for
	// heterogeneous machines. The zero value means nominal (×1), so
	// homogeneous accounting is unchanged.
	Scale float64
}

// Breakdown splits an energy total into its components.
type Breakdown struct {
	DynamicCompute float64
	DynamicComm    float64
	Static         float64
}

// Total returns the summed energy of the breakdown.
func (b Breakdown) Total() float64 { return b.DynamicCompute + b.DynamicComm + b.Static }

// Energy returns the total CPU energy of a set of per-rank usages.
func (m *Model) Energy(usages []Usage) (float64, error) {
	b, err := m.EnergyBreakdown(usages)
	if err != nil {
		return 0, err
	}
	return b.Total(), nil
}

// EnergyBreakdown integrates power over every usage row, split by component.
func (m *Model) EnergyBreakdown(usages []Usage) (Breakdown, error) {
	var b Breakdown
	for i, u := range usages {
		if err := m.add(&b, i, u.Gear, u.ComputeTime, u.CommTime, u.Scale); err != nil {
			return Breakdown{}, err
		}
	}
	return b, nil
}

// Account prices one replayed execution the way the paper scores every
// gear assignment: rank r is powered for the whole run at gears[r],
// computing for res.Compute[r] and communicating or waiting for the rest of
// res.Time, with its draw multiplied by scale[r] (a nil scale means every
// rank is nominal). It is EnergyBreakdown over the equivalent Usage rows,
// bit for bit, without building them.
func (m *Model) Account(res *dimemas.Result, gears []dvfs.Gear, scale []float64) (Breakdown, error) {
	if len(gears) != len(res.Compute) {
		return Breakdown{}, fmt.Errorf("power: %d gears for %d ranks", len(gears), len(res.Compute))
	}
	if scale != nil && len(scale) != len(res.Compute) {
		return Breakdown{}, fmt.Errorf("power: %d power scales for %d ranks", len(scale), len(res.Compute))
	}
	var b Breakdown
	for r, ct := range res.Compute {
		var k float64
		if scale != nil {
			k = scale[r]
		}
		if err := m.add(&b, r, gears[r], ct, res.Time-ct, k); err != nil {
			return Breakdown{}, err
		}
	}
	return b, nil
}

// add integrates one rank's row into b: gear g for ct seconds of
// computation and cm of communication, at power multiplier scale (0 means
// nominal).
func (m *Model) add(b *Breakdown, rank int, g dvfs.Gear, ct, cm, scale float64) error {
	if ct < 0 || cm < 0 {
		return fmt.Errorf("power: rank %d has negative time (%v compute, %v comm)", rank, ct, cm)
	}
	if g.Freq <= 0 || g.Volt <= 0 {
		return fmt.Errorf("power: rank %d has invalid gear %v", rank, g)
	}
	k := scale
	if k == 0 {
		k = 1
	}
	if k < 0 || math.IsNaN(k) || math.IsInf(k, 0) {
		return fmt.Errorf("power: rank %d has invalid power scale %v", rank, scale)
	}
	b.DynamicCompute += k * m.Dynamic(Compute, g) * ct
	b.DynamicComm += k * m.Dynamic(Comm, g) * cm
	b.Static += k * m.Static(g) * (ct + cm)
	return nil
}

// StaticShareAtNominal returns static/(static+dynamic) power while computing
// at the nominal gear; by construction it equals Config.StaticFraction.
// Exposed for calibration tests.
func (m *Model) StaticShareAtNominal() float64 {
	g := m.cfg.Nominal
	st := m.Static(g)
	return st / (st + m.Dynamic(Compute, g))
}
