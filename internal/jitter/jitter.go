// Package jitter emulates the Jitter runtime system (Kappiah, Freeh,
// Lowenthal — SC 2005), the prior work whose static form is the paper's MAX
// algorithm. Where MAX fixes one gear per process for the whole run from a
// profile, Jitter adapts online: after every iteration each node inspects
// its slack (time not spent computing) and shifts one gear down when it has
// slack to spare, or back up when it has become critical.
//
// The emulation replays the trace iteration by iteration, feeding the
// observed per-rank times of iteration i into the gear decision for
// iteration i+1 — the same information the real runtime gets from its
// per-iteration timers.
package jitter

import (
	"errors"
	"fmt"

	"repro/internal/dimemas"
	"repro/internal/dvfs"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/timemodel"
	"repro/internal/trace"
)

// Config parameterizes a Jitter emulation run.
type Config struct {
	// Trace is the application trace with iteration markers.
	Trace *trace.Trace
	// Platform models the interconnect; zero value = DefaultPlatform.
	Platform dimemas.Platform
	// Set is the available gear set; Jitter needs discrete gears.
	Set *dvfs.Set
	// Power configures the CPU power model; zero value = paper baseline.
	Power power.Config
	// Beta is the memory-boundedness parameter (0 = DefaultBeta unless
	// BetaSet).
	Beta float64
	// BetaSet marks Beta as explicitly chosen, so an explicit Beta = 0
	// is honored instead of defaulting to 0.5 (see analysis.Config).
	BetaSet bool
	// FMax is the nominal top frequency (0 = dvfs.FMax).
	FMax float64
	// SlackDown is the relative-slack fraction (a node's slack minus the
	// most critical node's slack) above which a node shifts one gear down
	// (default 0.08).
	SlackDown float64
	// SlackUp is the relative-slack fraction below which a node shifts one
	// gear up (default 0.02). Must be below SlackDown.
	SlackUp float64
	// Cache optionally memoizes the per-iteration profiling replays (every
	// rank at FMax), keyed by the parent trace and iteration index, so
	// repeated emulations of the same trace — parameter sweeps over the
	// slack thresholds, benchmarks — skip them. Nil means uncached.
	Cache *dimemas.ReplayCache
}

// Result reports a Jitter emulation.
type Result struct {
	// Time and Energy are the adaptive run's totals; OrigTime and
	// OrigEnergy the all-at-fmax run's.
	Time, Energy         float64
	OrigTime, OrigEnergy float64
	// Norm holds energy/time/EDP normalized to the original run.
	Norm metrics.Result
	// GearSwitches counts all per-node gear changes across the run — the
	// overhead the static MAX algorithm avoids.
	GearSwitches int
	// FinalGears is the per-rank gear after the last iteration.
	FinalGears []dvfs.Gear
	// Iterations is the number of adapted iterations.
	Iterations int
}

// Errors.
var (
	ErrContinuousSet = errors.New("jitter: the runtime shifts discrete gears; use a discrete set")
	ErrNoIterations  = errors.New("jitter: trace carries no iteration markers")
)

func (c *Config) normalize() (dimemas.Env, error) {
	if c.Trace == nil {
		return dimemas.Env{}, errors.New("jitter: config needs a trace")
	}
	if c.Set == nil {
		return dimemas.Env{}, errors.New("jitter: config needs a gear set")
	}
	if c.Set.Continuous() {
		return dimemas.Env{}, ErrContinuousSet
	}
	if c.SlackDown == 0 {
		c.SlackDown = 0.08
	}
	if c.SlackUp == 0 {
		c.SlackUp = 0.02
	}
	if c.SlackUp >= c.SlackDown {
		return dimemas.Env{}, fmt.Errorf("jitter: SlackUp %v must be below SlackDown %v", c.SlackUp, c.SlackDown)
	}
	return dimemas.NewEnv(c.Platform, nil, c.Beta, c.BetaSet, c.FMax, c.Trace.NumRanks())
}

// Run emulates the runtime over the whole trace.
func Run(cfg Config) (*Result, error) {
	env, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	iters := cfg.Trace.Iterations()
	if iters == 0 {
		return nil, ErrNoIterations
	}
	n := cfg.Trace.NumRanks()
	pm, err := power.New(cfg.Power)
	if err != nil {
		return nil, err
	}
	gears := cfg.Set.Gears()
	top := len(gears) - 1

	// Every node starts at the top gear, exactly like the real runtime.
	idx := make([]int, n)
	for r := range idx {
		idx[r] = top
	}

	res := &Result{Iterations: iters, FinalGears: make([]dvfs.Gear, n)}
	nominal := make([]dvfs.Gear, n)
	cur := make([]dvfs.Gear, n)
	for r := range nominal {
		nominal[r] = dvfs.GearAt(env.FMax)
	}

	for it := 0; it < iters; it++ {
		sub, err := cfg.Trace.Slice(it, it+1)
		if err != nil {
			return nil, err
		}
		// Original (profiling) replay of this iteration at fmax.
		orig, err := cfg.Cache.OriginalSlice(cfg.Trace, it, sub, env.Machine, env.Options(nil))
		if err != nil {
			return nil, fmt.Errorf("jitter: iteration %d original replay: %w", it, err)
		}
		res.OrigTime += orig.Time
		e0, err := pm.Account(orig, nominal, nil)
		if err != nil {
			return nil, err
		}
		res.OrigEnergy += e0.Total()

		// Adaptive replay with the current gears.
		freqs := make([]float64, n)
		for r := 0; r < n; r++ {
			cur[r] = gears[idx[r]]
			freqs[r] = cur[r].Freq
		}
		opts := env.Options(nil)
		opts.Freqs = freqs
		adapt, err := dimemas.SimulateMachine(sub, env.Machine, opts)
		if err != nil {
			return nil, fmt.Errorf("jitter: iteration %d adaptive replay: %w", it, err)
		}
		res.Time += adapt.Time
		e1, err := pm.Account(adapt, cur, nil)
		if err != nil {
			return nil, err
		}
		res.Energy += e1.Total()

		// Gear decision for the next iteration. Like the real runtime, each
		// node acts on its slack *relative to the most critical node*:
		// absolute slack would also count communication everyone performs
		// (a balanced, communication-heavy application must not slide all
		// its nodes down together — that only stretches the run).
		if it < iters-1 {
			minSlack := 1.0
			slacks := make([]float64, n)
			for r := 0; r < n; r++ {
				slacks[r] = 1 - adapt.Compute[r]/adapt.Time
				if slacks[r] < minSlack {
					minSlack = slacks[r]
				}
			}
			for r := 0; r < n; r++ {
				rel := slacks[r] - minSlack
				switch {
				case rel > cfg.SlackDown && idx[r] > 0:
					// Guard against overshoot, like the real runtime's
					// just-in-time completion estimate: only step down if
					// the predicted computation time at the lower gear
					// still fits inside the iteration with margin.
					// Without this, ranks near the critical path oscillate
					// between gears and stretch the run.
					cur := timemodel.Slowdown(env.Beta, env.FMax, gears[idx[r]].Freq)
					next := timemodel.Slowdown(env.Beta, env.FMax, gears[idx[r]-1].Freq)
					predicted := adapt.Compute[r] * next / cur
					if predicted < adapt.Time*(1-cfg.SlackUp) {
						idx[r]--
						res.GearSwitches++
					}
				case rel < cfg.SlackUp && idx[r] < top:
					idx[r]++
					res.GearSwitches++
				}
			}
		}
	}
	for r := 0; r < n; r++ {
		res.FinalGears[r] = gears[idx[r]]
	}
	res.Norm = metrics.NewResult(res.OrigEnergy, res.OrigTime, res.Energy, res.Time)
	return res, nil
}
