package dimemas

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestScorerFreshMatchesSkeleton pins the scoring seam: a skeleton-backed
// Scorer (delta tier for Score, scaled tier for Timeline) and a fresh one
// (SimulateMachine over the trace or its load-scaled copy) agree bit for
// bit, with and without a load scale, over one reused scorer each — on a
// flat machine, on a topology with per-rank power scales and frequency
// ceilings, and (unscaled only, see Scorer) with efficiency as well.
func TestScorerFreshMatchesSkeleton(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, n := range []int{4, 8} {
			p := DefaultPlatform()
			tr := randomValidTrace(seed*100+int64(n), n, 3, p.EagerLimit)
			rng := rand.New(rand.NewSource(seed * 13))
			hetero := &Capability{FMax: make([]float64, n), PowerScale: make([]float64, n)}
			for r := 0; r < n; r++ {
				hetero.FMax[r] = 1.4 + rng.Float64()
				hetero.PowerScale[r] = 1 + rng.Float64()
			}
			stretched := *hetero
			stretched.Efficiency = randomCapability(rng, n).Efficiency
			machines := []Machine{
				FlatMachine(p),
				{Base: p, Topo: randomTopology(rng, n), Cap: hetero},
				{Base: p, Topo: randomTopology(rng, n), Cap: &stretched},
			}
			for mi, m := range machines {
				opts := Options{Beta: 0.5, FMax: 2.3}
				sk, err := BuildSkeletonMachine(tr, m, opts)
				if err != nil {
					t.Fatal(err)
				}
				retimed := NewScorer(sk, tr, m, opts)
				fresh := NewScorer(nil, tr, m, opts)
				freqs := randomGearVector(rng, n)
				scale := make([]float64, n)
				for r := range scale {
					scale[r] = 0.5 + rng.Float64()
				}
				for step := 0; step < 8; step++ {
					freqs = mutateFreqs(rng, freqs, 1+rng.Intn(2))
					var sc []float64
					if step%2 == 1 && m.ScaleVector() == nil {
						scale = mutateScale(rng, scale, 1)
						sc = scale
					}
					fv := freqs
					if step == 0 {
						fv = nil
					}
					label := fmt.Sprintf("seed=%d n=%d machine=%d step=%d scaled=%t", seed, n, mi, step, sc != nil)
					want, err := fresh.Score(fv, sc)
					if err != nil {
						t.Fatal(err)
					}
					got, err := retimed.Score(fv, sc)
					if err != nil {
						t.Fatal(err)
					}
					mustEqualResults(t, label+" Score", got, want)
					if want.Timeline != nil {
						t.Errorf("%s: Score recorded a timeline", label)
					}

					want, err = fresh.Timeline(fv, sc)
					if err != nil {
						t.Fatal(err)
					}
					got, err = retimed.Timeline(fv, sc)
					if err != nil {
						t.Fatal(err)
					}
					mustEqualResults(t, label+" Timeline", got, want)
					if len(want.Timeline) != n {
						t.Errorf("%s: Timeline recorded %d rank timelines, want %d", label, len(want.Timeline), n)
					}
				}
			}
		}
	}
}
