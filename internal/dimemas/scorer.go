package dimemas

import "repro/internal/trace"

// Scorer is the one replay step every decision layer prices a candidate
// with: it turns a per-rank frequency vector and an optional per-rank load
// scale into the Result of the execution they imply. Built on a skeleton it
// retimes — Score through the delta tier, Timeline through the scaled tier;
// built without one (the FreshReplays cross-check) it simulates the trace
// afresh with SimulateMachine. Both modes return bit-identical Results —
// with one exception: on a machine whose capability layer stretches compute
// (Capability.Efficiency), a load scale multiplies the stretched duration
// on a skeleton but the unstretched one in a fresh replay, so the two agree
// only to rounding there.
//
// A Scorer owns one DeltaState, so it is not safe for concurrent use, and a
// Result returned by Score stays valid only until the next Score call.
type Scorer struct {
	skel  *Skeleton
	trace *trace.Trace
	m     Machine
	opts  Options
	delta DeltaState
}

// NewScorer returns a scorer over skel, or — when skel is nil — over fresh
// simulations of t on m under opts (β, FMax and Ctx are used; Freqs and
// RecordTimeline are set per call). With a skeleton, t, m and opts must be
// the ones it was recorded from.
func NewScorer(skel *Skeleton, t *trace.Trace, m Machine, opts Options) *Scorer {
	return &Scorer{skel: skel, trace: t, m: m, opts: opts}
}

// Score replays the execution at freqs (nil: every rank at FMax) with every
// rank's computation multiplied by scale (nil: unscaled), without a
// timeline. On a skeleton this is RetimeDelta, whose cost shrinks to the
// event cone of the ranks that changed since the previous call.
func (s *Scorer) Score(freqs, scale []float64) (*Result, error) {
	if s.skel != nil {
		return s.skel.RetimeDelta(&s.delta, freqs, scale)
	}
	return s.simulate(freqs, scale, false)
}

// Timeline is Score with per-rank timelines recorded, into a freshly
// allocated Result the caller owns.
func (s *Scorer) Timeline(freqs, scale []float64) (*Result, error) {
	if s.skel != nil {
		return s.skel.RetimeScaled(freqs, scale, true)
	}
	return s.simulate(freqs, scale, true)
}

// simulate is the fresh path: SimulateMachine over the load-scaled trace, or
// over the trace itself when scale is nil.
func (s *Scorer) simulate(freqs, scale []float64, timeline bool) (*Result, error) {
	t := s.trace
	if scale != nil {
		t = t.ScaleCompute(func(r int, _ trace.Record) float64 { return scale[r] })
	}
	opts := s.opts
	opts.Freqs, opts.RecordTimeline = freqs, timeline
	return SimulateMachine(t, s.m, opts)
}
