package analysis

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/stagerr"
)

// BatchItem is one gear assignment of a batched analysis: the parameters
// that vary per what-if question. Everything else — the trace, the platform,
// the power model, β and FMax — comes from the shared Config.
type BatchItem struct {
	// Set is this item's DVFS gear set (required).
	Set *dvfs.Set
	// Algorithm selects MAX or AVG.
	Algorithm core.Algorithm
	// Rounding selects the gear-quantization rule; the zero value is the
	// paper's closest-higher rule.
	Rounding core.Rounding
}

// RunBatch answers len(items) what-if questions about cfg.Trace in one
// pass: the baseline replay, its balance metrics, and the timing skeleton
// are computed once; per-item gear assignments run against the shared
// baseline; and every DVFS replay happens inside a single
// Skeleton.RetimeBatch walk, which amortizes op decode across candidates.
// Each item's Result is bit-identical to what Run would return for the same
// parameters.
//
// The two return slices are index-aligned with items: exactly one of
// results[i], errs[i] is non-nil. Item-level failures (a nil gear set, an
// assignment error) never fail the batch. The error return is reserved for
// shared-stage failures — invalid shared config, baseline replay, skeleton
// construction — which doom every item anyway. cfg.Set, cfg.Algorithm and
// cfg.Rounding are ignored; cfg.RecordTimelines is rejected (batch replays
// never record timelines).
func RunBatch(cfg Config, items []BatchItem) (results []*Result, errs []error, err error) {
	results, errs, err = runBatch(cfg, items)
	if err != nil {
		return nil, nil, stagerr.Wrap(stagerr.Optimize, err)
	}
	return results, errs, nil
}

func runBatch(cfg Config, items []BatchItem) ([]*Result, []error, error) {
	// Shared stages, computed once.
	b, err := cfg.prelude(true)
	if err != nil {
		return nil, nil, err
	}
	skel, err := b.cache.SkeletonForMachine(cfg.Trace, b.env.Machine, b.opts)
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: timing skeleton: %w", err)
	}

	// Per-item assignments. Failed items keep their error; the survivors'
	// frequency vectors line up for one batched retiming.
	results := make([]*Result, len(items))
	errs := make([]error, len(items))
	assignments := make([]*core.Assignment, len(items))
	vecs := make([][]float64, 0, len(items))
	live := make([]int, 0, len(items))
	for i, item := range items {
		if item.Set == nil {
			errs[i] = stagerr.Wrap(stagerr.Validate, core.ErrNilSet)
			continue
		}
		a, err := b.assign(item.Set, item.Algorithm, item.Rounding)
		if err != nil {
			errs[i] = err
			continue
		}
		assignments[i] = a
		vecs = append(vecs, a.Freqs())
		live = append(live, i)
	}

	if len(vecs) > 0 {
		batch, err := skel.RetimeBatch(vecs)
		if err != nil {
			return nil, nil, fmt.Errorf("analysis: batch replay: %w", err)
		}
		for k, i := range live {
			next := batch.At(k)
			results[i], errs[i] = b.result(cfg.Trace.App, assignments[i], &next)
		}
	}
	return results, errs, nil
}
