// Package analysis is the paper's power analysis module (§4): it glues the
// pipeline together. Given a trace, it measures the original execution,
// assigns one DVFS gear per process according to an algorithm and gear set,
// replays the rescaled execution, and accounts original vs. new CPU energy.
package analysis

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/dimemas"
	"repro/internal/dvfs"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/stagerr"
	"repro/internal/trace"
)

// Config parameterizes one analysis run.
type Config struct {
	// Trace is the application trace (iterative region only).
	Trace *trace.Trace
	// Platform models the interconnect; zero value means DefaultPlatform.
	Platform dimemas.Platform
	// Machine optionally layers topology and per-rank capability on top of
	// Platform (nil means the flat homogeneous machine). The pipeline then
	// replays on the layered machine, the balancer honors per-rank frequency
	// ceilings (Capability.FMax), and the energy accounting multiplies each
	// rank's draw by Capability.PowerScale. A Machine with a zero Base
	// inherits the normalized Platform.
	Machine *dimemas.Machine
	// Power configures the CPU power model; zero value means the paper's
	// baseline (ratio 1.5, static 20 %, see power.New).
	Power power.Config
	// Set is the available DVFS gear set.
	Set *dvfs.Set
	// Algorithm selects MAX or AVG.
	Algorithm core.Algorithm
	// Beta is the memory-boundedness parameter in [0, 1]. The zero value
	// selects the paper's default 0.5 (timemodel.DefaultBeta) unless
	// BetaSet is true.
	Beta float64
	// BetaSet marks Beta as explicitly chosen, making an explicit Beta = 0
	// (a fully memory-bound, frequency-insensitive run — legal in
	// dimemas.Options) reach the simulator unrewritten instead of being
	// treated as "unset" and defaulted to 0.5.
	BetaSet bool
	// FMax is the nominal top frequency (default dvfs.FMax when zero).
	FMax float64
	// RecordTimelines retains per-rank execution segments of both runs for
	// visualization.
	RecordTimelines bool
	// Rounding selects the gear-quantization rule; the zero value is the
	// paper's closest-higher rule.
	Rounding core.Rounding
	// Baseline optionally supplies a precomputed original execution (all
	// ranks at FMax) for this exact (Trace, Platform, Beta, FMax,
	// RecordTimelines) combination. Run trusts it without re-checking; use
	// Cache instead when the match cannot be guaranteed by construction.
	Baseline *dimemas.Result
	// Cache optionally memoizes original executions and timing skeletons
	// across runs: sweeps that evaluate many variants of the same trace
	// replay the baseline once instead of once per variant, and the DVFS
	// replay becomes a skeleton retiming (bit-identical to a fresh
	// simulation, an order of magnitude cheaper). The cached values are
	// shared and must be treated as read-only (Run itself never mutates
	// them).
	Cache *dimemas.ReplayCache
	// Ctx optionally bounds the run: the replay and retiming stages poll
	// it and abort with its error once it is done, so serving layers can
	// stop paying for requests that already timed out.
	Ctx context.Context
}

// RunStats describes one simulated execution's cost.
type RunStats struct {
	Time      float64
	Energy    float64
	Breakdown power.Breakdown
	// Compute is the per-rank computation time (at that run's gears).
	Compute []float64
	// Timeline is per-rank segments when Config.RecordTimelines is set.
	Timeline [][]dimemas.Segment
}

// Result is the outcome of one analysis run.
type Result struct {
	// App names the analyzed trace.
	App string
	// Assignment is the per-rank gear decision.
	Assignment *core.Assignment
	// Orig is the all-ranks-at-fmax execution; New is the DVFS execution.
	Orig, New RunStats
	// Norm holds energy/time/EDP normalized to the original run.
	Norm metrics.Result
	// LB and PE are the original execution's characteristics (Table 3).
	LB, PE float64
}

// ErrNilTrace reports a missing trace.
var ErrNilTrace = errors.New("analysis: config needs a trace")

// baseline is what Run and RunBatch share before any gear is assigned: the
// resolved model, the power model, the replay options, the original
// (all-ranks-at-FMax) execution with its balance metrics, and its cost.
type baseline struct {
	env    dimemas.Env
	pm     *power.Model
	cache  *dimemas.ReplayCache
	opts   dimemas.Options
	orig   *dimemas.Result
	lb, pe float64
	stats  RunStats
}

// prelude validates cfg and computes its baseline. A batch needs no gear
// set, never records timelines, and always replays through a cache — a
// private one when cfg.Cache is nil, since its skeleton must be built
// regardless. Configuration problems carry the validate stage.
func (c *Config) prelude(batch bool) (*baseline, error) {
	if c.Trace == nil {
		return nil, stagerr.Wrap(stagerr.Validate, ErrNilTrace)
	}
	if !batch && c.Set == nil {
		return nil, stagerr.Wrap(stagerr.Validate, core.ErrNilSet)
	}
	env, err := dimemas.NewEnv(c.Platform, c.Machine, c.Beta, c.BetaSet, c.FMax, c.Trace.NumRanks())
	if err != nil {
		return nil, stagerr.Wrap(stagerr.Validate, err)
	}
	if batch && c.RecordTimelines {
		return nil, stagerr.New(stagerr.Validate, "analysis: batch runs do not record timelines")
	}
	// Warm-cache runs touch no cancellation point inside the replays; bail
	// out here so loops of Runs (batch serving, searches) stay responsive.
	if c.Ctx != nil {
		if err := c.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	pm, err := power.New(c.Power)
	if err != nil {
		return nil, err
	}
	b := &baseline{env: env, pm: pm, cache: c.Cache, opts: env.Options(c.Ctx)}
	if batch && b.cache == nil {
		b.cache = dimemas.NewReplayCache()
	}
	b.opts.RecordTimeline = c.RecordTimelines
	// A precomputed baseline short-circuits the replay; otherwise the cache
	// (nil-safe: a nil cache simulates directly) memoizes it across runs.
	b.orig = c.Baseline
	if b.orig == nil {
		if b.orig, err = b.cache.OriginalMachine(c.Trace, env.Machine, b.opts); err != nil {
			return nil, fmt.Errorf("analysis: original replay: %w", err)
		}
	}
	if b.lb, err = metrics.LoadBalance(b.orig.Compute); err != nil {
		return nil, err
	}
	if b.pe, err = metrics.ParallelEfficiency(b.orig.Compute, b.orig.Time); err != nil {
		return nil, err
	}
	nominal := make([]dvfs.Gear, len(b.orig.Compute))
	for r := range nominal {
		nominal[r] = dvfs.GearAt(env.FMax)
	}
	b.stats, err = runStats(pm, b.orig, nominal, env.Machine.PowerScales())
	if err != nil {
		return nil, err
	}
	return b, nil
}

// assign balances the original per-process computation times over set,
// honoring per-rank frequency ceilings on heterogeneous machines.
func (b *baseline) assign(set *dvfs.Set, alg core.Algorithm, rounding core.Rounding) (*core.Assignment, error) {
	balancer := &core.Balancer{Set: set, Beta: b.env.Beta, FMax: b.env.FMax, Rounding: rounding, FMaxes: b.env.Machine.FMaxes()}
	return balancer.Assign(alg, b.orig.Compute)
}

// result accounts the DVFS execution next of assignment a against the
// baseline. Each CPU is powered for the whole run at its assigned gear;
// whatever is not computation is communication/wait.
func (b *baseline) result(app string, a *core.Assignment, next *dimemas.Result) (*Result, error) {
	newStats, err := runStats(b.pm, next, a.Gears, b.env.Machine.PowerScales())
	if err != nil {
		return nil, err
	}
	return &Result{
		App:        app,
		Assignment: a,
		Orig:       b.stats,
		New:        newStats,
		Norm:       metrics.NewResult(b.stats.Energy, b.stats.Time, newStats.Energy, newStats.Time),
		LB:         b.lb,
		PE:         b.pe,
	}, nil
}

// Run executes the full pipeline. Errors are stage-tagged
// (internal/stagerr): configuration problems carry the validate stage,
// everything past validation crosses optimize on its way out, with the
// origin stage (skeleton/retime/cache) preserved underneath.
func Run(cfg Config) (*Result, error) {
	res, err := run(cfg)
	if err != nil {
		return nil, stagerr.Wrap(stagerr.Optimize, err)
	}
	return res, nil
}

func run(cfg Config) (*Result, error) {
	b, err := cfg.prelude(false)
	if err != nil {
		return nil, err
	}
	assignment, err := b.assign(cfg.Set, cfg.Algorithm, cfg.Rounding)
	if err != nil {
		return nil, err
	}
	// Replay with per-rank frequencies. With a cache this is a retiming of
	// the memoized timing skeleton — bit-identical to a fresh simulation;
	// without one it degrades to a plain Simulate call.
	opts := b.opts
	opts.Freqs = assignment.Freqs()
	next, err := b.cache.ReplayMachine(cfg.Trace, b.env.Machine, opts)
	if err != nil {
		return nil, fmt.Errorf("analysis: DVFS replay: %w", err)
	}
	return b.result(cfg.Trace.App, assignment, next)
}

func runStats(pm *power.Model, res *dimemas.Result, gears []dvfs.Gear, scales []float64) (RunStats, error) {
	b, err := pm.Account(res, gears, scales)
	if err != nil {
		return RunStats{}, err
	}
	return RunStats{
		Time:      res.Time,
		Energy:    b.Total(),
		Breakdown: b,
		Compute:   res.Compute,
		Timeline:  res.Timeline,
	}, nil
}

// Compare runs both MAX and AVG on the same trace with their respective gear
// sets (the paper's Figure 10 setup) and returns both results.
func Compare(cfg Config, maxSet, avgSet *dvfs.Set) (maxRes, avgRes *Result, err error) {
	cfg.Set = maxSet
	cfg.Algorithm = core.MAX
	maxRes, err = Run(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: MAX: %w", err)
	}
	cfg.Set = avgSet
	cfg.Algorithm = core.AVG
	avgRes, err = Run(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: AVG: %w", err)
	}
	return maxRes, avgRes, nil
}
