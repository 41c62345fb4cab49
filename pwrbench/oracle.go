package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dimemas"
	"repro/internal/dvfs"
	"repro/internal/power"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workload"
)

// betas is the β menu what-if queries draw from. A small menu keeps every
// (trace, β) baseline and skeleton resident in the replay cache.
var betas = []float64{0.3, 0.5, 0.7}

// drawGearSet draws one gear-set spec and balancing algorithm.
func drawGearSet(rng *rand.Rand) (string, server.GearSetSpec) {
	algo := "MAX"
	if rng.Intn(3) == 0 {
		algo = "AVG"
	}
	var spec server.GearSetSpec
	switch k := rng.Intn(20); {
	case k < 3:
		spec = server.GearSetSpec{Kind: "uniform", N: 3 + rng.Intn(10)}
	case k < 6:
		spec = server.GearSetSpec{Kind: "exponential", N: 3 + rng.Intn(10)}
	case k == 6:
		spec = server.GearSetSpec{Kind: "continuous-limited"}
	case k == 7:
		spec = server.GearSetSpec{Kind: "continuous-unlimited"}
	default:
		// A custom set: the top gear plus 2..7 random lower ones, which
		// makes repeated queries rare.
		spec = server.GearSetSpec{Kind: "custom", Freqs: []float64{dvfs.FMax}}
		for range 2 + rng.Intn(6) {
			spec.Freqs = append(spec.Freqs, 0.8+1.4*rng.Float64())
		}
	}
	spec.Overclock = algo == "AVG" && spec.N > 0 && rng.Intn(2) == 0 // discrete sets only
	return algo, spec
}

// drawFreqs draws a per-rank frequency vector in [1.0, 2.3] GHz.
func drawFreqs(rng *rand.Rand, n int) []float64 {
	f := make([]float64, n)
	for r := range f {
		f[r] = 1.0 + 1.3*rng.Float64()
	}
	return f
}

// buildSet turns a wire gear-set spec into the dvfs.Set the daemon builds
// from it, so references call the library with the same set.
func buildSet(spec server.GearSetSpec) (*dvfs.Set, error) {
	n := spec.N
	if n == 0 {
		n = 6
	}
	var (
		set *dvfs.Set
		err error
	)
	switch spec.Kind {
	case "uniform":
		set, err = dvfs.Uniform(n)
	case "exponential":
		set, err = dvfs.Exponential(n)
	case "continuous-limited":
		set = dvfs.ContinuousLimited()
	case "continuous-unlimited":
		set = dvfs.ContinuousUnlimited()
	case "custom":
		gears := make([]dvfs.Gear, len(spec.Freqs))
		for i, f := range spec.Freqs {
			gears[i] = dvfs.GearAt(f)
		}
		set, err = dvfs.FromGears("custom", gears)
	default:
		return nil, fmt.Errorf("gear set kind %q", spec.Kind)
	}
	if err != nil || !spec.Overclock {
		return set, err
	}
	return set.WithOverclockGear(dvfs.Gear{Freq: dvfs.OverclockFreq, Volt: dvfs.OverclockVolt})
}

func algoOf(s string) core.Algorithm {
	if s == "AVG" {
		return core.AVG
	}
	return core.MAX
}

// wire marshals a response exactly as the daemon does.
func wire(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	return append(b, '\n'), err
}

// analysisConfig is the library configuration the daemon builds for an
// analyze request on its default platform with an explicit β.
func analysisConfig(tr *trace.Trace, beta float64) analysis.Config {
	return analysis.Config{
		Trace:    tr,
		Platform: dimemas.DefaultPlatform(),
		Power:    power.DefaultConfig(),
		Beta:     beta,
		BetaSet:  true,
	}
}

func refAnalyze(tr *trace.Trace, beta float64, algo string, spec server.GearSetSpec) ([]byte, error) {
	set, err := buildSet(spec)
	if err != nil {
		return nil, err
	}
	cfg := analysisConfig(tr, beta)
	cfg.Set, cfg.Algorithm = set, algoOf(algo)
	res, err := analysis.Run(cfg)
	if err != nil {
		return nil, err
	}
	return wire(server.NewAnalyzeResponse(set.Name(), res))
}

func refReplay(tr *trace.Trace, beta float64, freqs []float64) ([]byte, error) {
	res, err := dimemas.Simulate(tr, dimemas.DefaultPlatform(), dimemas.Options{Beta: beta, FMax: dvfs.FMax, Freqs: freqs})
	if err != nil {
		return nil, err
	}
	return wire(server.NewReplayResponse(tr.App, res))
}

func refBatch(tr *trace.Trace, beta float64, items []server.AnalyzeBatchItem) ([]byte, error) {
	want := &server.AnalyzeBatchResponse{App: tr.App}
	for _, it := range items {
		set, err := buildSet(it.GearSet)
		if err != nil {
			return nil, err
		}
		cfg := analysisConfig(tr, beta)
		cfg.Set, cfg.Algorithm = set, algoOf(it.Algorithm)
		res, err := analysis.Run(cfg)
		if err != nil {
			return nil, err
		}
		want.Results = append(want.Results, server.NewAnalyzeResponse(set.Name(), res))
	}
	return wire(want)
}

// ranksOf is a key's rank count, known without generating the trace.
func ranksOf(ref server.TraceRef) int {
	if ref.NProcs > 0 {
		return ref.NProcs
	}
	n, _ := strconv.Atoi(ref.App[strings.LastIndexByte(ref.App, '-')+1:])
	return n
}

// instanceOf resolves a generated-trace reference the way the daemon does.
func instanceOf(ref server.TraceRef) (workload.Instance, error) {
	if ref.NProcs > 0 {
		return workload.InstanceFor(ref.App, ref.NProcs)
	}
	return workload.FindInstance(ref.App)
}

// generate builds the trace the daemon generates for ref.
func generate(ref server.TraceRef) (*trace.Trace, error) {
	inst, err := instanceOf(ref)
	if err != nil {
		return nil, err
	}
	cfg := workload.DefaultConfig()
	if ref.Iterations > 0 {
		cfg.Iterations = ref.Iterations
	}
	cfg.SkipPECalibration = ref.Quick
	return workload.Generate(inst, cfg)
}
