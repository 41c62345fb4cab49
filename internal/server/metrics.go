package server

import (
	"time"

	"repro/internal/dimemas"
	"repro/internal/obs"
	"repro/internal/stagerr"
)

// metrics is the daemon's /metrics registry and the named updates the
// request path makes to it.
type metrics struct {
	*obs.Registry
	start time.Time

	inFlight, rejected, timeouts, panics                       *obs.Family
	requests, requestErrors, requestSeconds, requestSecondsMax *obs.Family
	stageErrors, stageSeconds, stageSpans                      *obs.Family
}

// newMetrics declares the daemon's families in exposition order. Cache and
// readiness gauges read s at scrape time; stages render zero-filled over
// the full taxonomy in pipeline order, so dashboards see every stage from
// the first scrape on.
func newMetrics(s *Server) *metrics {
	m := &metrics{start: time.Now()}
	cache := func(f func(dimemas.CacheStats) float64) func(string) float64 {
		return func(string) float64 { return f(s.cache.Stats()) }
	}
	var stages []string
	for _, st := range stagerr.Stages() {
		stages = append(stages, string(st))
	}
	m.Registry = obs.New(
		obs.Def{Name: "pwrsimd_uptime_seconds", Help: "Seconds since the server started.", Type: obs.Gauge, Float: true,
			Value: func(string) float64 { return time.Since(m.start).Seconds() }},
		obs.Def{Name: "pwrsimd_in_flight", Help: "Requests currently being served.", Type: obs.Gauge, Into: &m.inFlight},
		obs.Def{Name: "pwrsimd_rejected_total", Help: "Requests rejected by the in-flight limit.", Type: obs.Counter, Into: &m.rejected},
		obs.Def{Name: "pwrsimd_timeouts_total", Help: "Requests aborted by the per-request timeout.", Type: obs.Counter, Into: &m.timeouts},
		obs.Def{Name: "pwrsimd_panics_total", Help: "Handler panics contained by the lifecycle middleware.", Type: obs.Counter, Into: &m.panics},
		obs.Def{Name: "pwrsimd_ready", Help: "Readiness (1 = serving, 0 = starting or draining; see /readyz).", Type: obs.Gauge,
			Value: func(string) float64 { return boolValue(s.Ready()) }},

		obs.Def{Name: "pwrsimd_cache_hits_total", Help: "Replay-cache hits.", Type: obs.Counter,
			Value: cache(func(c dimemas.CacheStats) float64 { return float64(c.Hits) })},
		obs.Def{Name: "pwrsimd_cache_misses_total", Help: "Replay-cache misses.", Type: obs.Counter,
			Value: cache(func(c dimemas.CacheStats) float64 { return float64(c.Misses) })},
		obs.Def{Name: "pwrsimd_cache_evictions_total", Help: "Replay-cache LRU evictions.", Type: obs.Counter,
			Value: cache(func(c dimemas.CacheStats) float64 { return float64(c.Evictions) })},
		obs.Def{Name: "pwrsimd_cache_entries", Help: "Replay-cache current entry count.", Type: obs.Gauge,
			Value: cache(func(c dimemas.CacheStats) float64 { return float64(c.Entries) })},
		// The hit ratio is derivable from the counters, but exposing it as a
		// gauge lets the fleet scaling experiment (and dashboards) read each
		// shard's cache temperature without doing rate arithmetic.
		obs.Def{Name: "pwrsimd_cache_hit_ratio", Help: "Replay-cache hits over lookups since start (0 before the first lookup).", Type: obs.Gauge, Float: true,
			Value: cache(func(c dimemas.CacheStats) float64 {
				if c.Hits+c.Misses == 0 {
					return 0
				}
				return float64(c.Hits) / float64(c.Hits+c.Misses)
			})},

		obs.Def{Name: "pwrsimd_requests_total", Help: "Finished requests by route.", Type: obs.Counter, Label: "route", Into: &m.requests},
		obs.Def{Name: "pwrsimd_request_errors_total", Help: "Non-2xx requests by route.", Type: obs.Counter, Label: "route", Into: &m.requestErrors},
		obs.Def{Name: "pwrsimd_request_seconds_sum", Help: "Summed request latency by route.", Type: obs.Counter, Float: true, Label: "route", Into: &m.requestSeconds},
		obs.Def{Name: "pwrsimd_request_seconds_max", Help: "Worst observed request latency by route.", Type: obs.Gauge, Float: true, Label: "route", Into: &m.requestSecondsMax},

		obs.Def{Name: "pwrsimd_stage_errors_total", Help: "Error envelopes by originating pipeline stage.", Type: obs.Counter, Label: "stage", Labels: stages, Into: &m.stageErrors},
		obs.Def{Name: "pwrsimd_stage_seconds_sum", Help: "Summed latency of timed pipeline-stage spans.", Type: obs.Counter, Float: true, Label: "stage", Labels: stages, Into: &m.stageSeconds},
		obs.Def{Name: "pwrsimd_stage_seconds_count", Help: "Timed pipeline-stage spans.", Type: obs.Counter, Label: "stage", Labels: stages, Into: &m.stageSpans},
	)
	return m
}

func boolValue(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (m *metrics) enter()    { m.inFlight.Add("", 1) }
func (m *metrics) exit()     { m.inFlight.Add("", -1) }
func (m *metrics) reject()   { m.rejected.Add("", 1) }
func (m *metrics) timeout()  { m.timeouts.Add("", 1) }
func (m *metrics) panicked() { m.panics.Add("", 1) }

// stageError counts one error envelope attributed to a stage.
func (m *metrics) stageError(st stagerr.Stage) { m.stageErrors.Add(string(st), 1) }

// observeStage records one timed span of a pipeline stage.
func (m *metrics) observeStage(st stagerr.Stage, d time.Duration) {
	m.stageSpans.Add(string(st), 1)
	m.stageSeconds.Add(string(st), d.Seconds())
}

// observe records one finished request on a route. isErr marks non-2xx
// outcomes.
func (m *metrics) observe(route string, d time.Duration, isErr bool) {
	m.requests.Add(route, 1)
	m.requestErrors.Add(route, boolValue(isErr))
	m.requestSeconds.Add(route, d.Seconds())
	m.requestSecondsMax.Max(route, d.Seconds())
}
