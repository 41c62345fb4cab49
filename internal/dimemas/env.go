package dimemas

import (
	"context"

	"repro/internal/dvfs"
	"repro/internal/timemodel"
)

// Env is the resolved model a decision is scored under: the layered machine
// the trace replays on, the memory-boundedness β and the nominal top
// frequency every trace duration refers to. Every decision layer and the
// daemon build it through NewEnv, so two pipelines configured alike replay —
// and share ReplayCache entries — alike.
type Env struct {
	Machine Machine
	Beta    float64
	FMax    float64
}

// NewEnv resolves the model from the loose configuration fields the
// decision layers expose, applying the one defaulting and validation policy:
//
//   - a zero platform is DefaultPlatform();
//   - a nil machine is FlatMachine of the platform, and a machine with a
//     zero Base takes the platform;
//   - β = 0 means "unset" (timemodel.DefaultBeta) unless betaSet, and
//     fmax = 0 means dvfs.FMax;
//   - β must lie in [0, 1], FMax must be positive and finite (NaN is
//     rejected for both), and the machine must pass ValidateFor(nranks),
//     where nranks < 0 skips the rank-count checks.
//
// Every failure carries the validate stage.
func NewEnv(p Platform, m *Machine, beta float64, betaSet bool, fmax float64, nranks int) (Env, error) {
	if p == (Platform{}) {
		p = DefaultPlatform()
	}
	env := Env{Machine: FlatMachine(p), Beta: beta, FMax: fmax}
	if m != nil {
		env.Machine = *m
		if env.Machine.Base == (Platform{}) {
			env.Machine.Base = p
		}
	}
	if beta == 0 && !betaSet {
		// β = 0 is legal in the time model but means DVFS is free; every
		// study in the paper uses β ≥ 0.3. The bare zero value therefore
		// reads as "unset" — callers who really want a fully memory-bound
		// run say so with betaSet.
		env.Beta = timemodel.DefaultBeta
	}
	if fmax == 0 {
		env.FMax = dvfs.FMax
	}
	opts := env.Options(nil)
	if err := opts.validateModel(); err != nil {
		return Env{}, err
	}
	if err := env.Machine.ValidateFor(nranks); err != nil {
		return Env{}, err
	}
	return env, nil
}

// Options returns the replay options of the environment with every rank at
// FMax, bounded by ctx (nil means unbounded).
func (e Env) Options(ctx context.Context) Options {
	return Options{Beta: e.Beta, FMax: e.FMax, Ctx: ctx}
}
