// Package powercap schedules per-rank DVFS gears under a cluster power
// budget. The paper down-gears non-critical ranks assuming unbounded power;
// this package solves the inverse scenario studied by Medhat et al. ("Power
// Redistribution for Optimizing Performance in MPI Clusters"): given a fixed
// cluster power cap, pick per-rank gears that minimize execution time
// subject to the cap, with energy as tiebreaker.
//
// Two policies are compared:
//
//   - Uniform downshift: every rank runs the same gear — the highest level
//     that satisfies the cap. This is what a cluster-level governor without
//     application knowledge can do.
//   - Load-aware redistribution: start from the top gear everywhere and take
//     power from slack-rich ranks first (the paper's MAX ordering inverted —
//     the ranks MAX would down-gear for free are the ones whose power is
//     cheapest to confiscate), then run a greedy refinement loop that
//     up-shifts the critical rank when further shedding elsewhere can pay
//     for it, and finally reclaims leftover slack for pure energy savings at
//     unchanged execution time.
//
// Every candidate is scored exactly: the execution time of a gear vector is
// the delta-retimed replay of the trace's timing skeleton (dimemas.Scorer
// over ReplayCache.SkeletonForMachine), bit-identical to a fresh simulation
// at a fraction of the cost, which is what makes a cap sweep run at retime
// speed rather than replay speed; its energy is power.Model.Account.
package powercap

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/dimemas"
	"repro/internal/dvfs"
	"repro/internal/power"
	"repro/internal/stagerr"
	"repro/internal/timemodel"
	"repro/internal/trace"
)

// CapKind selects what the budget bounds.
type CapKind int

const (
	// CapPeak bounds the worst-case instantaneous cluster power: the sum of
	// every rank's compute-phase power at its assigned gear. This is the
	// exact profile peak whenever some instant has all ranks computing
	// simultaneously (true at t=0 for the generated workloads, whose
	// iterations open with a computation burst) and a safe upper bound
	// otherwise, so the reported peak of a scheduled run never exceeds the
	// cap.
	CapPeak CapKind = iota
	// CapAverage bounds the time-averaged cluster power of the run:
	// energy / execution time, both measured on the exact retimed replay.
	CapAverage

	// capKindCount counts the variants; maxCapKind is the last valid one.
	// New kinds must be added above capKindCount so the validation range
	// extends automatically instead of silently rejecting them.
	capKindCount
	maxCapKind = capKindCount - 1
)

func (k CapKind) String() string {
	switch k {
	case CapPeak:
		return "peak"
	case CapAverage:
		return "average"
	default:
		return fmt.Sprintf("CapKind(%d)", int(k))
	}
}

// Policy names a scheduling policy in results.
type Policy int

const (
	// PolicyUniform is the uniform-downshift baseline.
	PolicyUniform Policy = iota
	// PolicyRedistribute is the load-aware redistribution scheduler.
	PolicyRedistribute
)

func (p Policy) String() string {
	switch p {
	case PolicyUniform:
		return "uniform"
	case PolicyRedistribute:
		return "redistribute"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config parameterizes one power-cap scheduling run.
type Config struct {
	// Trace is the application trace.
	Trace *trace.Trace
	// Platform models the interconnect; zero value means DefaultPlatform.
	Platform dimemas.Platform
	// Machine optionally layers topology and per-rank capability on top of
	// Platform (nil means the flat homogeneous machine). The scheduler then
	// becomes capability-aware: per-rank power draw is multiplied by
	// Capability.PowerScale (in the cap accounting, the energy scores, and
	// the reported profiles), and per-rank frequency ceilings
	// (Capability.FMax) bound which gears each rank may be assigned. A
	// Machine with a zero Base inherits the normalized Platform.
	Machine *dimemas.Machine
	// Power configures the CPU power model; zero value means the paper's
	// baseline. The cap is expressed in this model's units.
	Power power.Config
	// Set is the available DVFS gear set. It must be discrete: the
	// scheduler sheds power one gear step at a time.
	Set *dvfs.Set
	// Cap is the cluster power budget in model units (see Kind).
	Cap float64
	// Kind selects a peak (default) or time-averaged budget.
	Kind CapKind
	// Beta is the memory-boundedness parameter; the zero value selects the
	// paper's default 0.5 unless BetaSet is true (see analysis.Config).
	Beta float64
	// BetaSet marks Beta as explicitly chosen, honoring an explicit 0.
	BetaSet bool
	// FMax is the nominal top frequency (default dvfs.FMax when zero).
	FMax float64
	// MaxMoves bounds the refinement moves of the redistribution policy
	// (default 4 × ranks).
	MaxMoves int
	// Cache optionally memoizes the baseline replay and the timing
	// skeleton, sharing them with every other pipeline — and across the
	// rows of a cap sweep, which then pays for the skeleton exactly once.
	// Nil builds an uncached skeleton for this run.
	Cache *dimemas.ReplayCache
	// FreshReplays forces every candidate to be scored by a fresh
	// SimulateMachine call instead of a skeleton retiming (no skeleton is
	// built; the Cache still memoizes the baseline). Results are
	// bit-identical either way; the flag exists to measure the skeleton's
	// speedup (BenchmarkPowercapSweep) and as a cross-check in tests.
	FreshReplays bool
	// Ctx optionally bounds the run; it is polled between candidate
	// evaluations and threaded into the replays.
	Ctx context.Context
}

// Schedule is the outcome of one policy: the gear vector plus the exact
// cost of the scheduled run.
type Schedule struct {
	// Policy records which scheduler produced the assignment.
	Policy Policy
	// Gears holds the per-rank operating points.
	Gears []dvfs.Gear
	// Time and Energy are the scheduled run's execution time and CPU
	// energy (exact replay values).
	Time, Energy float64
	// PeakPower and AveragePower are measured on the scheduled run's
	// cluster power profile; AveragePower is Energy/Time.
	PeakPower, AveragePower float64
	// OverCapSeconds is the total time the instantaneous cluster power
	// exceeds the cap: always 0 for a peak-mode schedule, possibly
	// positive under an average-mode cap.
	OverCapSeconds float64
	// NormTime and NormEnergy are Time and Energy relative to the
	// uncapped (all ranks at FMax) execution.
	NormTime, NormEnergy float64
}

// Freqs returns the per-rank frequencies of the schedule.
func (s *Schedule) Freqs() []float64 {
	out := make([]float64, len(s.Gears))
	for i, g := range s.Gears {
		out[i] = g.Freq
	}
	return out
}

// RefStats describes the uncapped reference execution.
type RefStats struct {
	Time, Energy            float64
	PeakPower, AveragePower float64
}

// Result is the outcome of one power-cap scheduling run.
type Result struct {
	// App names the scheduled trace.
	App string
	// Cap and Kind echo the budget.
	Cap  float64
	Kind CapKind
	// Uncapped is the all-ranks-at-FMax reference execution.
	Uncapped RefStats
	// Uniform and Redistributed are the two policies' schedules. The
	// redistribution result never loses to uniform on (time, energy): the
	// greedy falls back to the uniform solution when that one dominates.
	Uniform, Redistributed Schedule
	// Evaluations counts candidate gear vectors scored by exact replay.
	Evaluations int
}

// Errors.
var (
	// ErrNilTrace reports a missing trace.
	ErrNilTrace = errors.New("powercap: config needs a trace")
	// ErrNilSet reports a missing gear set.
	ErrNilSet = errors.New("powercap: config needs a gear set")
	// ErrContinuousSet reports a continuous gear set (the scheduler sheds
	// power in discrete gear steps).
	ErrContinuousSet = errors.New("powercap: needs a discrete gear set")
	// ErrCapInfeasible reports a cap below what the bottom gear can meet.
	ErrCapInfeasible = errors.New("powercap: cap infeasible")
)

func (c *Config) normalize() (dimemas.Env, error) {
	if c.Trace == nil {
		return dimemas.Env{}, ErrNilTrace
	}
	if c.Set == nil {
		return dimemas.Env{}, ErrNilSet
	}
	if c.Set.Continuous() {
		return dimemas.Env{}, fmt.Errorf("%w, got %s", ErrContinuousSet, c.Set.Name())
	}
	if c.Cap <= 0 || math.IsNaN(c.Cap) || math.IsInf(c.Cap, 0) {
		return dimemas.Env{}, fmt.Errorf("powercap: cap must be positive and finite, got %v", c.Cap)
	}
	if c.Kind < CapPeak || c.Kind > maxCapKind {
		return dimemas.Env{}, fmt.Errorf("powercap: unknown cap kind %d", int(c.Kind))
	}
	if c.MaxMoves < 0 {
		return dimemas.Env{}, fmt.Errorf("powercap: negative max moves %d", c.MaxMoves)
	}
	return dimemas.NewEnv(c.Platform, c.Machine, c.Beta, c.BetaSet, c.FMax, c.Trace.NumRanks())
}

// scheduler carries one run's state: the frequency-independent inputs, the
// per-gear constants, the candidate scorer and the reusable evaluation
// buffers.
type scheduler struct {
	cfg      *Config
	pm       *power.Model
	gears    []dvfs.Gear // ascending
	pComp    []float64   // per gear: compute-phase power
	sd       []float64   // per gear: β slowdown factor vs FMax
	pscale   []float64   // per rank: power multiplier (nil: homogeneous)
	maxGi    []int       // per rank: highest assignable gear index
	baseComp []float64   // per rank: computation time at FMax (read-only)
	scorer   *dimemas.Scorer
	cur      *dimemas.Result // result of the last evaluate call
	freqs    []float64       // candidate per-rank frequencies
	cand     []dvfs.Gear     // candidate per-rank gears
	maxMoves int
	evals    int
}

// GearCeilings returns each of n ranks' highest assignable index into the
// ascending gears: the last gear whose frequency stays at or below the
// rank's ceiling fmaxes[r] (at least the bottom gear, matching
// dvfs.Set.QuantizeDown), or the top gear when fmaxes is nil or the entry
// is zero.
func GearCeilings(gears []dvfs.Gear, fmaxes []float64, n int) []int {
	top := make([]int, n)
	for r := range top {
		top[r] = len(gears) - 1
		if r < len(fmaxes) && fmaxes[r] > 0 {
			for top[r] > 0 && gears[top[r]].Freq > fmaxes[r]+1e-12 {
				top[r]--
			}
		}
	}
	return top
}

// Run schedules the trace under the configured power cap with both policies
// and reports their exact costs next to the uncapped reference execution.
// Errors are stage-tagged (internal/stagerr): configuration problems carry
// the validate stage, everything else crosses powercap with the origin
// stage preserved underneath.
func Run(cfg Config) (*Result, error) {
	res, err := run(cfg)
	if err != nil {
		return nil, stagerr.Wrap(stagerr.Powercap, err)
	}
	return res, nil
}

func run(cfg Config) (*Result, error) {
	env, err := cfg.normalize()
	if err != nil {
		return nil, stagerr.Wrap(stagerr.Validate, err)
	}
	pm, err := power.New(cfg.Power)
	if err != nil {
		return nil, err
	}
	opts := env.Options(cfg.Ctx)
	var skel *dimemas.Skeleton
	if !cfg.FreshReplays {
		if skel, err = cfg.Cache.SkeletonForMachine(cfg.Trace, env.Machine, opts); err != nil {
			return nil, fmt.Errorf("powercap: timing skeleton: %w", err)
		}
	}
	// The timeline baseline doubles as the uncapped reference and the
	// slack-ordering source; through a cache it is shared across every row
	// of a cap sweep.
	tlOpts := opts
	tlOpts.RecordTimeline = true
	base, err := cfg.Cache.OriginalMachine(cfg.Trace, env.Machine, tlOpts)
	if err != nil {
		return nil, fmt.Errorf("powercap: baseline replay: %w", err)
	}

	n := len(base.Compute)
	gears := cfg.Set.Gears()
	s := &scheduler{
		cfg:      &cfg,
		pm:       pm,
		gears:    gears,
		pComp:    make([]float64, len(gears)),
		sd:       make([]float64, len(gears)),
		pscale:   env.Machine.PowerScales(),
		maxGi:    GearCeilings(gears, env.Machine.FMaxes(), n),
		baseComp: base.Compute,
		scorer:   dimemas.NewScorer(skel, cfg.Trace, env.Machine, opts),
		freqs:    make([]float64, n),
		cand:     make([]dvfs.Gear, n),
		maxMoves: cfg.MaxMoves,
	}
	if s.maxMoves == 0 {
		s.maxMoves = 4 * n
	}
	for gi, g := range gears {
		if g.Freq <= 0 || g.Volt <= 0 {
			return nil, fmt.Errorf("powercap: invalid gear %v in set %s", g, cfg.Set.Name())
		}
		s.pComp[gi] = pm.Power(power.Compute, g)
		s.sd[gi] = timemodel.Slowdown(env.Beta, env.FMax, g.Freq)
	}

	// Uncapped reference: every rank at the nominal FMax gear.
	nomGears := make([]dvfs.Gear, n)
	for r := range nomGears {
		nomGears[r] = dvfs.GearAt(env.FMax)
	}
	b, err := pm.Account(base, nomGears, s.pscale)
	if err != nil {
		return nil, err
	}
	baseEnergy := b.Total()
	baseProfile, err := power.BuildProfileScaled(pm, base.Timeline, nomGears, s.pscale, base.Time)
	if err != nil {
		return nil, fmt.Errorf("powercap: baseline profile: %w", err)
	}
	ref := RefStats{
		Time:         base.Time,
		Energy:       baseEnergy,
		PeakPower:    baseProfile.Peak(),
		AveragePower: baseEnergy / base.Time,
	}

	uniIdx, uniTime, uniEnergy, err := s.uniform()
	if err != nil {
		return nil, err
	}
	redIdx, redTime, redEnergy, err := s.redistribute()
	if err != nil {
		return nil, err
	}
	// The uniform assignment is also a valid redistribution outcome: fall
	// back to it when the greedy lost on (time, energy), so redistribution
	// never reports a worse schedule than the baseline policy.
	if uniTime < redTime || (uniTime == redTime && uniEnergy < redEnergy) {
		copy(redIdx, uniIdx)
	}

	uniform, err := s.finish(PolicyUniform, uniIdx, ref)
	if err != nil {
		return nil, err
	}
	redistributed, err := s.finish(PolicyRedistribute, redIdx, ref)
	if err != nil {
		return nil, err
	}
	return &Result{
		App:           cfg.Trace.App,
		Cap:           cfg.Cap,
		Kind:          cfg.Kind,
		Uncapped:      ref,
		Uniform:       *uniform,
		Redistributed: *redistributed,
		Evaluations:   s.evals,
	}, nil
}

// evaluate scores one gear-index vector exactly: the replayed execution
// time plus the energy of the run at those gears.
func (s *scheduler) evaluate(idx []int) (time, energy float64, err error) {
	if ctx := s.cfg.Ctx; ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, 0, err
		}
	}
	s.evals++
	for r, gi := range idx {
		s.cand[r] = s.gears[gi]
		s.freqs[r] = s.gears[gi].Freq
	}
	// The greedy phases move one gear between consecutive evaluations, so
	// the scorer's delta retiming re-times just the affected cone.
	res, err := s.scorer.Score(s.freqs, nil)
	if err != nil {
		return 0, 0, err
	}
	s.cur = res
	b, err := s.pm.Account(res, s.cand, s.pscale)
	if err != nil {
		return 0, 0, err
	}
	return res.Time, b.Total(), nil
}

// peakBound is the all-ranks-computing instantaneous cluster power of a
// gear-index vector — the quantity a peak cap constrains. Heterogeneous
// ranks contribute their scaled draw.
func (s *scheduler) peakBound(idx []int) float64 {
	var sum float64
	if s.pscale == nil {
		for _, gi := range idx {
			sum += s.pComp[gi]
		}
		return sum
	}
	for r, gi := range idx {
		sum += s.pComp[gi] * s.pscale[r]
	}
	return sum
}

// measured carries the exact scores an average-mode feasibility check
// already paid for, so callers reuse them instead of replaying the
// identical gear vector twice.
type measured struct {
	time, energy float64
	valid        bool
}

// feasible reports whether a gear-index vector satisfies the cap. Peak caps
// are O(ranks) arithmetic (m stays invalid); average caps cost one exact
// replay whose scores are returned in m.
func (s *scheduler) feasible(idx []int) (ok bool, m measured, err error) {
	if s.cfg.Kind == CapPeak {
		return s.peakBound(idx) <= s.cfg.Cap, measured{}, nil
	}
	t, e, err := s.evaluate(idx)
	if err != nil {
		return false, measured{}, err
	}
	return e/t <= s.cfg.Cap, measured{time: t, energy: e, valid: true}, nil
}

// bestShed picks the rank to take power from next: among ranks above the
// bottom gear (and not the excluded rank), the one whose computation would
// remain shortest after shedding one gear — the slack-richest rank, the
// paper's MAX ordering inverted. Ties break to the lower rank. Returns -1
// when no rank can shed.
func (s *scheduler) bestShed(idx []int, exclude int) int {
	best := -1
	bestAfter := math.Inf(1)
	for r, gi := range idx {
		if r == exclude || gi == 0 {
			continue
		}
		after := s.baseComp[r] * s.sd[gi-1]
		if after < bestAfter {
			bestAfter = after
			best = r
		}
	}
	return best
}

// infeasibleErr reports the cheapest configuration's actual demand next to
// the cap: the all-bottom average power for average caps (the quantity
// feasibility tested), the all-bottom compute power for peak caps.
func (s *scheduler) infeasibleErr() error {
	n := len(s.baseComp)
	if s.cfg.Kind == CapAverage {
		bottom := make([]int, n)
		if t, e, err := s.evaluate(bottom); err == nil {
			return fmt.Errorf("%w: average cap %.6g below the all-bottom-gear average power %.6g (%d ranks at %s)",
				ErrCapInfeasible, s.cfg.Cap, e/t, n, s.gears[0])
		}
	}
	floor := s.peakBound(make([]int, n))
	return fmt.Errorf("%w: %s cap %.6g below the all-bottom-gear compute power %.6g (%d ranks at %s)",
		ErrCapInfeasible, s.cfg.Kind, s.cfg.Cap, floor, n, s.gears[0])
}

// uniform finds the best single gear level under the cap: lexicographically
// minimal (time, energy), which is the highest feasible level whenever β > 0
// and the lowest-energy one among time-ties (e.g. β = 0). On machines with
// per-rank frequency ceilings the level is clamped to each rank's own top —
// the best a uniform governor can do on such hardware.
func (s *scheduler) uniform() (idx []int, time, energy float64, err error) {
	n := len(s.baseComp)
	idx = make([]int, n)
	trial := make([]int, n)
	found := false
	for gi := len(s.gears) - 1; gi >= 0; gi-- {
		for r := range trial {
			trial[r] = gi
			if top := s.maxGi[r]; gi > top {
				trial[r] = top
			}
		}
		if s.cfg.Kind == CapPeak && s.peakBound(trial) > s.cfg.Cap {
			continue
		}
		t, e, err := s.evaluate(trial)
		if err != nil {
			return nil, 0, 0, err
		}
		if s.cfg.Kind == CapAverage && e/t > s.cfg.Cap {
			continue
		}
		if !found || t < time || (t == time && e < energy) {
			found = true
			time, energy = t, e
			copy(idx, trial)
		}
	}
	if !found {
		return nil, 0, 0, s.infeasibleErr()
	}
	return idx, time, energy, nil
}

// redistribute runs the three-phase greedy: shed power from slack-rich
// ranks until the cap holds, refine by up-shifting the critical rank when
// further shedding elsewhere pays for it, then reclaim leftover slack for
// energy at unchanged execution time. The returned time/energy are the
// final vector's exact scores.
func (s *scheduler) redistribute() (idx []int, time, energy float64, err error) {
	n := len(s.baseComp)
	idx = make([]int, n)
	for r := range idx {
		idx[r] = s.maxGi[r]
	}

	// Phase 1 — shed until feasible, slack-richest first.
	var m measured
	for {
		var ok bool
		ok, m, err = s.feasible(idx)
		if err != nil {
			return nil, 0, 0, err
		}
		if ok {
			break
		}
		r := s.bestShed(idx, -1)
		if r < 0 {
			return nil, 0, 0, s.infeasibleErr()
		}
		idx[r]--
	}

	// Phase 2 — refinement: give the critical rank one gear back, paying
	// with further shedding elsewhere; commit only strict (time, energy)
	// improvements. Invariant maintained throughout phases 1–2: the last
	// evaluate call scored the current idx, so criticalRank can read the
	// retimed compute times from s.cur.
	curTime, curEnergy := m.time, m.energy
	if !m.valid {
		if curTime, curEnergy, err = s.evaluate(idx); err != nil {
			return nil, 0, 0, err
		}
	}
	trial := make([]int, n)
	for moves := 0; moves < s.maxMoves; moves++ {
		crit := s.criticalRank(idx)
		if crit < 0 {
			break
		}
		copy(trial, idx)
		trial[crit]++
		affordable := true
		for {
			var ok bool
			ok, m, err = s.feasible(trial)
			if err != nil {
				return nil, 0, 0, err
			}
			if ok {
				break
			}
			r := s.bestShed(trial, crit)
			if r < 0 {
				affordable = false
				break
			}
			trial[r]--
		}
		if !affordable {
			break
		}
		tTime, tEnergy := m.time, m.energy
		if !m.valid {
			if tTime, tEnergy, err = s.evaluate(trial); err != nil {
				return nil, 0, 0, err
			}
		}
		if tTime < curTime || (tTime == curTime && tEnergy < curEnergy) {
			copy(idx, trial)
			curTime, curEnergy = tTime, tEnergy
			continue
		}
		break
	}

	// Phase 3 — slack reclamation: a downshift strictly reduces the peak
	// bound, and a committed one (equal time, lower energy) also reduces
	// the average power, so committed moves can never break the cap.
	for {
		changed := false
		for r := 0; r < n; r++ {
			if idx[r] == 0 {
				continue
			}
			idx[r]--
			tTime, tEnergy, err := s.evaluate(idx)
			if err != nil {
				return nil, 0, 0, err
			}
			if tTime == curTime && tEnergy < curEnergy {
				curEnergy = tEnergy
				changed = true
			} else {
				idx[r]++
			}
		}
		if !changed {
			break
		}
	}
	return idx, curTime, curEnergy, nil
}

// criticalRank returns the rank with the longest retimed computation among
// those not already at their top gear — the set's top, or the rank's own
// capability ceiling on heterogeneous machines — (ties to the lower rank),
// using the compute times of the last evaluate call; -1 when every rank is
// at its top.
func (s *scheduler) criticalRank(idx []int) int {
	best := -1
	bestComp := math.Inf(-1)
	for r, gi := range idx {
		if gi >= s.maxGi[r] {
			continue
		}
		if c := s.cur.Compute[r]; c > bestComp {
			bestComp = c
			best = r
		}
	}
	return best
}

// finish replays the chosen assignment once with timeline recording and
// derives the schedule's exact profile-level statistics.
func (s *scheduler) finish(policy Policy, idx []int, ref RefStats) (*Schedule, error) {
	gears := make([]dvfs.Gear, len(idx))
	freqs := make([]float64, len(idx))
	for r, gi := range idx {
		gears[r] = s.gears[gi]
		freqs[r] = s.gears[gi].Freq
	}
	res, err := s.scorer.Timeline(freqs, nil)
	if err != nil {
		return nil, fmt.Errorf("powercap: %s schedule replay: %w", policy, err)
	}
	b, err := s.pm.Account(res, gears, s.pscale)
	if err != nil {
		return nil, err
	}
	energy := b.Total()
	profile, err := power.BuildProfileScaled(s.pm, res.Timeline, gears, s.pscale, res.Time)
	if err != nil {
		return nil, fmt.Errorf("powercap: %s schedule profile: %w", policy, err)
	}
	return &Schedule{
		Policy:         policy,
		Gears:          gears,
		Time:           res.Time,
		Energy:         energy,
		PeakPower:      profile.Peak(),
		AveragePower:   energy / res.Time,
		OverCapSeconds: profile.TimeAbove(s.cfg.Cap),
		NormTime:       res.Time / ref.Time,
		NormEnergy:     energy / ref.Energy,
	}, nil
}
