package gateway

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/obs"
)

// metrics is the gateway's /metrics registry and the named updates the
// proxy and health paths make to it.
type metrics struct {
	*obs.Registry
	start time.Time

	requests, errors, hedges, hedgeWins    *obs.Family
	shed, noBackend, timeouts, warmups     *obs.Family
	rebalances, keysMoved, lastChurn       *obs.Family
	proxied, proxySeconds, proxySecondsMax *obs.Family
}

// newMetrics declares the gateway's families in exposition order. Backend
// families render zero-filled over the whole configured pool, sorted, so
// every backend appears from the first scrape on and readiness flips are
// gauge transitions, not series births.
func newMetrics(g *Gateway) *metrics {
	m := &metrics{start: time.Now()}
	pool := slices.Sorted(slices.Values(g.order))
	ready := func(name string) float64 {
		if g.backends[name].ready() {
			return 1
		}
		return 0
	}
	perBackend := func(name, help string, into **obs.Family) obs.Def {
		return obs.Def{Name: name, Help: help, Type: obs.Counter, Label: "backend", Labels: pool, Into: into}
	}
	m.Registry = obs.New(
		obs.Def{Name: "pwrsimgw_uptime_seconds", Help: "Seconds since the gateway started.", Type: obs.Gauge, Float: true,
			Value: func(string) float64 { return time.Since(m.start).Seconds() }},
		obs.Def{Name: "pwrsimgw_backend_ready", Help: "Backend readiness (1 = in the ring).", Type: obs.Gauge,
			Label: "backend", Labels: pool, Value: ready},
		obs.Def{Name: "pwrsimgw_ring_members", Help: "Backends currently in the hash ring.", Type: obs.Gauge,
			Value: func(string) float64 {
				n := 0.0
				for _, b := range pool {
					n += ready(b)
				}
				return n
			}},

		perBackend("pwrsimgw_backend_requests_total", "Proxy attempts by backend.", &m.requests),
		perBackend("pwrsimgw_backend_errors_total", "Transport failures by backend.", &m.errors),
		perBackend("pwrsimgw_backend_hedges_total", "Hedged attempts launched by backend.", &m.hedges),
		perBackend("pwrsimgw_backend_hedge_wins_total", "Hedged attempts whose response was served.", &m.hedgeWins),

		obs.Def{Name: "pwrsimgw_shed_total", Help: "Requests shed (429) because the shard's backend was saturated.", Type: obs.Counter, Into: &m.shed},
		obs.Def{Name: "pwrsimgw_no_ready_backend_total", Help: "Requests failed (502) with no ready backend.", Type: obs.Counter, Into: &m.noBackend},
		obs.Def{Name: "pwrsimgw_timeouts_total", Help: "Requests failed (504) with no backend response in time.", Type: obs.Counter, Into: &m.timeouts},
		obs.Def{Name: "pwrsimgw_warmups_total", Help: "Cache-warming requests issued on backend joins.", Type: obs.Counter, Into: &m.warmups},

		obs.Def{Name: "pwrsimgw_ring_rebalance_total", Help: "Hash-ring rebuilds caused by membership changes.", Type: obs.Counter, Into: &m.rebalances},
		obs.Def{Name: "pwrsimgw_ring_keys_moved_total", Help: fmt.Sprintf("Probe keys (of %d) that changed owner, summed over rebuilds.", churnProbes), Type: obs.Counter, Into: &m.keysMoved},
		obs.Def{Name: "pwrsimgw_ring_last_churn_ratio", Help: "Keyspace fraction moved by the most recent rebuild.", Type: obs.Gauge, Float: true, Into: &m.lastChurn},

		obs.Def{Name: "pwrsimgw_proxied_total", Help: "Proxied requests by route.", Type: obs.Counter, Label: "route", Into: &m.proxied},
		obs.Def{Name: "pwrsimgw_proxy_seconds_sum", Help: "Summed gateway-side latency by route.", Type: obs.Counter, Float: true, Label: "route", Into: &m.proxySeconds},
		obs.Def{Name: "pwrsimgw_proxy_seconds_max", Help: "Worst gateway-side latency by route.", Type: obs.Gauge, Float: true, Label: "route", Into: &m.proxySecondsMax},
	)
	return m
}

// attempt records one proxy attempt sent to a backend.
func (m *metrics) attempt(backend string, hedge bool) {
	m.requests.Add(backend, 1)
	if hedge {
		m.hedges.Add(backend, 1)
	}
}

func (m *metrics) attemptError(backend string) { m.errors.Add(backend, 1) }
func (m *metrics) hedgeWin(backend string)     { m.hedgeWins.Add(backend, 1) }
func (m *metrics) shedOne()                    { m.shed.Add("", 1) }
func (m *metrics) noReady()                    { m.noBackend.Add("", 1) }
func (m *metrics) timeoutOne()                 { m.timeouts.Add("", 1) }
func (m *metrics) warmupIssued()               { m.warmups.Add("", 1) }

// rebalanced records one ring rebuild and its estimated keyspace churn.
func (m *metrics) rebalanced(moved int, fraction float64) {
	m.rebalances.Add("", 1)
	m.keysMoved.Add("", float64(moved))
	m.lastChurn.Set("", fraction)
}

// observe records one finished proxied request on a route.
func (m *metrics) observe(route string, d time.Duration) {
	m.proxied.Add(route, 1)
	m.proxySeconds.Add(route, d.Seconds())
	m.proxySecondsMax.Max(route, d.Seconds())
}
