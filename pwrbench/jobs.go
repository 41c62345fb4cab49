package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro"
	"repro/internal/server"
)

// jobTraces are the optimize-jobs inputs, calibrated 5-iteration
// generations.
var jobTraces = []string{"WRF-128", "SPECFEM3D-96", "IS-32", "CG-32"}

const jobIterations = 5

// jobKinds and jobWeights set the optimizer mix: the slow power-cap
// scheduler is drawn rarely enough that no optimizer takes much more than
// half of the worker time.
var (
	jobKinds   = []string{"powercap", "rebalance", "gearopt", "placement"}
	jobWeights = []float64{2, 8, 2, 1}
)

// placementMaxRanks bounds the traces placement searches: one pass scores
// every rank pair with a full replay, so its cost grows with the square of
// the rank count (seconds at 128 ranks).
const placementMaxRanks = 32

// jobStat is what one finished job reports to the per-layer metrics.
type jobStat struct {
	kind      string
	call      time.Duration // the facade call alone
	evals     int
	reassign  int
	fallbacks int
	forecasts int
}

// jobs is the optimize-jobs workload: optimizer jobs through the root
// facade on worker goroutines sharing one replay cache.
type jobs struct {
	seed  int64
	sp    *spans
	cache *repro.ReplayCache
	trs   []*repro.Trace

	mu    sync.Mutex
	stats []jobStat
	warm  repro.CacheStats
}

func newJobs(seed int64, sp *spans) (bench, error) {
	return &jobs{seed: seed, sp: sp}, nil
}

func (j *jobs) setup() error {
	j.cache = repro.NewReplayCache()
	j.trs = j.trs[:0]
	cfg := repro.DefaultWorkloadConfig()
	cfg.Iterations = jobIterations
	for _, name := range jobTraces {
		tr, err := repro.GenerateWorkload(name, cfg)
		if err != nil {
			return err
		}
		for _, beta := range betas {
			opts := repro.SimOptions{Beta: beta, FMax: repro.FMax}
			if _, err := j.cache.Original(tr, repro.DefaultPlatform(), opts); err != nil {
				return err
			}
			if _, err := j.cache.SkeletonFor(tr, repro.DefaultPlatform(), opts); err != nil {
				return err
			}
		}
		j.trs = append(j.trs, tr)
	}
	j.warm = j.cache.Stats()
	j.stats = nil
	return nil
}

func (j *jobs) teardown() {}

// job is one drawn optimizer job: its kind, trace and parameter stream.
type job struct {
	kind string
	tr   int
	rng  *rand.Rand
}

func (j *jobs) op(i int) job {
	rng := opRNG(j.seed, "jobs", i)
	var total float64
	for _, w := range jobWeights {
		total += w
	}
	u := rng.Float64() * total
	k := 0
	for ; k < len(jobWeights)-1 && u >= jobWeights[k]; k++ {
		u -= jobWeights[k]
	}
	tr := rng.Intn(len(jobTraces))
	for jobKinds[k] == "placement" && ranksOf(server.TraceRef{App: jobTraces[tr]}) > placementMaxRanks {
		tr = rng.Intn(len(jobTraces))
	}
	return job{kind: jobKinds[k], tr: tr, rng: rng}
}

// jobConfig draws the job's parameters and returns a runner. fresh selects
// the Simulate-backed reference path where the optimizer has one.
func jobConfig(kind string, tr *repro.Trace, others []*repro.Trace, rng *rand.Rand, cache *repro.ReplayCache, fresh bool) func() (any, jobStat, error) {
	beta := betas[rng.Intn(len(betas))]
	nGears := 4 + rng.Intn(5)
	switch kind {
	case "powercap":
		set, _ := repro.UniformGearSet(nGears)                   // 4..8 gears always build
		pm, _ := repro.NewPowerModel(repro.DefaultPowerConfig()) // the default model is valid
		peak := float64(tr.NumRanks()) * pm.Power(repro.PhaseCompute, repro.GearAtFrequency(repro.FMax))
		kindCap := repro.CapPeak
		if rng.Intn(2) == 0 {
			kindCap = repro.CapAverage
		}
		cfg := repro.PowerCapConfig{Trace: tr, Set: set, Cap: (0.55 + 0.3*rng.Float64()) * peak, Kind: kindCap,
			Beta: beta, BetaSet: true, Cache: cache, FreshReplays: fresh}
		return func() (any, jobStat, error) {
			res, err := repro.SchedulePowerCap(cfg)
			if err != nil {
				return nil, jobStat{}, err
			}
			return server.NewPowercapResponse(res), jobStat{evals: res.Evaluations}, nil
		}
	case "rebalance":
		set, _ := repro.UniformGearSet(nGears)
		drift := repro.WorkloadDrift{Kind: repro.DriftRamp, Magnitude: 0.2 + 0.3*rng.Float64(), Jitter: 0.02, Seed: rng.Int63n(1 << 30)}
		switch rng.Intn(3) {
		case 1:
			drift.Kind = repro.DriftStep
		case 2:
			drift.Kind, drift.Magnitude = repro.DriftWalk, 0.05+0.1*rng.Float64()
		}
		policy := []repro.RebalancePolicy{repro.RebalanceNever, repro.RebalanceEveryK, repro.RebalanceThreshold, repro.RebalancePredictive}[rng.Intn(4)]
		cfg := repro.RebalanceConfig{Trace: tr, Set: set, Iterations: 8 + rng.Intn(9), Drift: drift, Policy: policy,
			Period: 2 + rng.Intn(3), Threshold: 0.01, Margin: 0.15, ReassignOverhead: 3e-3,
			Beta: beta, BetaSet: true, Cache: cache, FreshReplays: fresh}
		if policy != repro.RebalanceEveryK {
			cfg.Period = 0
		}
		return func() (any, jobStat, error) {
			res, err := repro.RunRebalance(cfg)
			if err != nil {
				return nil, jobStat{}, err
			}
			st := jobStat{reassign: res.Reassignments}
			if res.Forecast != nil {
				st.fallbacks, st.forecasts = res.Forecast.Fallbacks, res.Forecast.Observations
			}
			return server.NewRebalanceResponse(res), st, nil
		}
	case "gearopt":
		traces := []*repro.Trace{tr}
		if rng.Intn(2) == 0 && len(others) > 0 {
			traces = append(traces, others[rng.Intn(len(others))])
		}
		cfg := repro.GearSearchConfig{Traces: traces, NGears: 3 + rng.Intn(4), Beta: beta, BetaSet: true,
			Cache: cache, FreshReplays: fresh}
		return func() (any, jobStat, error) {
			res, err := repro.OptimizeGearSet(cfg)
			if err != nil {
				return nil, jobStat{}, err
			}
			return server.NewGearOptResponse(res), jobStat{evals: res.Evaluations}, nil
		}
	default: // placement
		perNode := []int{4, 8}[rng.Intn(2)]
		m := repro.Machine{Base: repro.DefaultPlatform(), Topo: &repro.MachineTopology{
			Placement: repro.ShuffledPlacement(tr.NumRanks(), perNode, rng.Int63n(1<<30)),
			Intra:     repro.Link{Latency: 5e-7, Bandwidth: 6e9},
			Inter:     repro.Link{Latency: 2e-5 * (0.5 + rng.Float64()), Bandwidth: 1e8},
		}}
		cfg := repro.PlacementConfig{Trace: tr, Machine: m, Beta: beta, BetaSet: true, FMax: repro.FMax, MaxPasses: 1 + rng.Intn(2)}
		return func() (any, jobStat, error) {
			res, err := repro.OptimizePlacement(cfg)
			if err != nil {
				return nil, jobStat{}, err
			}
			return res, jobStat{evals: res.Evaluations}, nil
		}
	}
}

func (j *jobs) run(i int, fresh bool) ([]byte, jobStat, error) {
	o := j.op(i)
	others := make([]*repro.Trace, 0, len(j.trs)-1)
	for k, tr := range j.trs {
		if k != o.tr {
			others = append(others, tr)
		}
	}
	cache := j.cache
	if fresh {
		cache = nil
	}
	runJob := jobConfig(o.kind, j.trs[o.tr], others, o.rng, cache, fresh)
	t0 := time.Now()
	res, st, err := runJob()
	st.call = time.Since(t0)
	st.kind = o.kind
	if err != nil {
		return nil, st, fmt.Errorf("%s job %d: %w", o.kind, i, err)
	}
	b, err := json.Marshal(res)
	return b, st, err
}

func (j *jobs) do(i int) (uint64, error) {
	b, st, err := j.run(i, false)
	if err != nil {
		return 0, err
	}
	if j.sp != nil {
		j.mu.Lock()
		j.stats = append(j.stats, st)
		j.mu.Unlock()
	}
	return digest(b), nil
}

func (j *jobs) reference(i int) (uint64, error) {
	b, _, err := j.run(i, true)
	return digest(b), err
}

func (j *jobs) key(i int) string {
	o := j.op(i)
	// The parameter stream is a function of (seed, i); its first draws
	// identify the job as well as the full configuration does.
	return fmt.Sprintf("%s/%d/%d/%d", o.kind, o.tr, o.rng.Int63(), o.rng.Int63())
}

func (j *jobs) probes(idx []int) []probe {
	var out []probe
	for _, i := range idx {
		o := j.op(i)
		out = append(out, probe{
			ref: server.TraceRef{App: jobTraces[o.tr], Iterations: jobIterations},
			tr:  j.trs[o.tr],
			rng: opRNG(j.seed, "probe", i),
		})
	}
	return out
}

// jobMetrics summarizes finished jobs into the optimizer layer metrics.
func jobMetrics(stats []jobStat, out map[string]float64) {
	by := map[string][]jobStat{}
	for _, st := range stats {
		by[st.kind] = append(by[st.kind], st)
	}
	for kind, sts := range by {
		ms := make([]float64, len(sts))
		var total time.Duration
		var evals, reassign, fallbacks, forecasts int
		for k, st := range sts {
			ms[k] = st.call.Seconds() * 1e3
			total += st.call
			evals += st.evals
			reassign += st.reassign
			fallbacks += st.fallbacks
			forecasts += st.forecasts
		}
		out[kind+".job_ms_p50"] = median(ms)
		n := float64(len(sts))
		if kind == "rebalance" {
			out["rebalance.reassignments_per_job"] = float64(reassign) / n
			out["rebalance.forecast_fallback_ratio"] = float64(fallbacks) / float64(max(1, forecasts))
			continue
		}
		out[kind+".evals_per_job"] = float64(evals) / n
		out[kind+".us_per_eval"] = float64(total.Nanoseconds()) / 1e3 / float64(max(1, evals))
	}
}

func (j *jobs) layerStats(w *window, out map[string]float64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	jobMetrics(j.stats, out)
	var call time.Duration
	for _, st := range j.stats {
		call += st.call
	}
	var lat time.Duration
	for _, o := range w.ops {
		lat += o.lat
	}
	if lat > 0 {
		out["harness.model_residual_ratio"] = (lat - call).Seconds() / lat.Seconds()
	}
	cacheDelta(j.warm, j.cache.Stats(), out)
}

func (j *jobs) facts(ops int) map[string]any {
	count := map[string]int{}
	for i := range ops {
		count[j.op(i).kind]++
	}
	j.mu.Lock()
	share := map[string]float64{}
	var total time.Duration
	for _, st := range j.stats {
		total += st.call
	}
	for _, st := range j.stats {
		share[st.kind] += st.call.Seconds() / total.Seconds()
	}
	j.mu.Unlock()
	return map[string]any{
		"jobs_by_kind":       count,
		"time_share_by_kind": share,
		"weights":            jobWeights,
		"traces":             jobTraces,
		"repeat_share":       repeatShare(j, ops),
		"replay_cache_keys":  len(jobTraces) * len(betas) * 2,
		"replay_cache_bound": "unbounded (shared NewReplayCache)",
	}
}
