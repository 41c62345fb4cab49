package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/dimemas"
	"repro/internal/gateway"
	"repro/internal/server"
	"repro/internal/trace"
)

// fleetKeys are the generated, calibrated traces the what-if fleet serves:
// the twelve Table 3 instances plus twelve interpolated sizes, 32–128 ranks.
// The order is the Zipf popularity rank.
var fleetKeys = func() []server.TraceRef {
	var keys []server.TraceRef
	for _, app := range []string{"CG-32", "WRF-128", "IS-32", "SPECFEM3D-96", "MG-64", "PEPC-128",
		"BT-MZ-32", "CG-64", "WRF-32", "IS-64", "MG-32", "SPECFEM3D-32"} {
		keys = append(keys, server.TraceRef{App: app, Iterations: fleetIterations})
	}
	for _, k := range []struct {
		app string
		n   int
	}{{"CG", 48}, {"MG", 48}, {"IS", 48}, {"BT-MZ", 64}, {"SPECFEM3D", 64}, {"WRF", 64},
		{"PEPC", 64}, {"CG", 96}, {"MG", 96}, {"IS", 96}, {"WRF", 96}, {"PEPC", 96}} {
		keys = append(keys, server.TraceRef{App: k.app, NProcs: k.n, Iterations: fleetIterations})
	}
	return keys
}()

const (
	fleetIterations = 5
	fleetZipf       = 1.1
	fleetBatchItems = 16
	// fleetBatchShare and fleetAnalyzeShare set the request mix; batch is
	// a minority of requests but about a third of backend time.
	fleetBatchShare   = 0.08
	fleetAnalyzeShare = 0.52
)

// fleetOp is one what-if query.
type fleetOp struct {
	path string
	key  int
	body any
}

// fleet is the whatif-fleet workload: warm what-if queries through the
// gateway to two in-process daemons over loopback.
type fleet struct {
	seed   int64
	sp     *spans
	client *httpClient

	backends []*server.Server
	servers  []*listener
	gw       *gateway.Gateway
	front    *listener
	warm     dimemas.CacheStats

	refMu  sync.Mutex
	refTrs map[int]*trace.Trace
}

func newFleet(seed int64, sp *spans) (bench, error) {
	return &fleet{seed: seed, sp: sp, refTrs: map[int]*trace.Trace{}}, nil
}

func (f *fleet) op(i int) fleetOp {
	rng := opRNG(f.seed, "fleet", i)
	k := zipf(rng, len(fleetKeys), fleetZipf)
	ref := fleetKeys[k]
	beta := betas[rng.Intn(len(betas))]
	gs := server.GearSpec{Beta: &beta}
	switch u := rng.Float64(); {
	case u < fleetBatchShare:
		items := make([]server.AnalyzeBatchItem, fleetBatchItems)
		for j := range items {
			items[j].Algorithm, items[j].GearSet = drawGearSet(rng)
		}
		return fleetOp{"/v1/analyze/batch", k, &server.AnalyzeBatchRequest{Trace: ref, Items: items, GearSpec: gs}}
	case u < fleetBatchShare+fleetAnalyzeShare:
		algo, set := drawGearSet(rng)
		return fleetOp{"/v1/analyze", k, &server.AnalyzeRequest{Trace: ref, Algorithm: algo, GearSet: set, GearSpec: gs}}
	default:
		return fleetOp{"/v1/replay", k, &server.ReplayRequest{Trace: ref, Freqs: drawFreqs(rng, ranksOf(ref)), GearSpec: gs}}
	}
}

func (f *fleet) key(i int) string {
	o := f.op(i)
	b, _ := json.Marshal(o.body) // the body types always marshal
	return o.path + string(b)
}

func (f *fleet) setup() error {
	f.client = newHTTPClient()
	var urls []string
	for range 2 {
		s := server.New(server.Config{})
		h := s.Handler()
		if f.sp != nil {
			h = f.sp.wrapBackend(h)
		}
		l, err := serve(h)
		if err != nil {
			return err
		}
		s.MarkReady()
		f.backends = append(f.backends, s)
		f.servers = append(f.servers, l)
		urls = append(urls, l.url)
	}
	gw, err := gateway.New(gateway.Config{Backends: urls})
	if err != nil {
		return err
	}
	f.gw = gw
	var h = gw.Handler()
	if f.sp != nil {
		h = f.sp.wrapGateway(h)
	}
	if f.front, err = serve(h); err != nil {
		return err
	}
	gw.Start()
	gw.CheckNow(context.Background())
	// Warm every (key, β) pair on the backend that owns the key: the
	// baseline replay and the timing skeleton land in its replay cache.
	for _, ref := range fleetKeys {
		for _, beta := range betas {
			b := beta
			body, _ := json.Marshal(&server.AnalyzeRequest{Trace: ref, GearSet: server.GearSetSpec{Kind: "uniform"}, GearSpec: server.GearSpec{Beta: &b}})
			if _, err := f.client.post(f.front.url+"/v1/analyze", body, nil); err != nil {
				return fmt.Errorf("warming %s: %w", ref.App, err)
			}
		}
	}
	f.warm = f.cacheStats()
	return nil
}

func (f *fleet) cacheStats() dimemas.CacheStats {
	var st dimemas.CacheStats
	for _, s := range f.backends {
		c := s.Cache().Stats()
		st.Hits += c.Hits
		st.Misses += c.Misses
		st.Evictions += c.Evictions
		st.Entries += c.Entries
	}
	return st
}

func (f *fleet) teardown() {
	if f.front != nil {
		f.front.close()
	}
	if f.gw != nil {
		f.gw.Close()
	}
	for _, l := range f.servers {
		l.close()
	}
	if f.client != nil {
		f.client.tr.CloseIdleConnections()
	}
	f.backends, f.servers, f.gw, f.front = nil, nil, nil, nil
}

func (f *fleet) do(i int) (uint64, error) {
	o := f.op(i)
	body, err := json.Marshal(o.body)
	if err != nil {
		return 0, err
	}
	out, err := f.client.post(f.front.url+o.path, body, f.sp)
	if err != nil {
		return 0, err
	}
	return digest(out), nil
}

func (f *fleet) refTrace(k int) (*trace.Trace, error) {
	f.refMu.Lock()
	defer f.refMu.Unlock()
	if tr, ok := f.refTrs[k]; ok {
		return tr, nil
	}
	tr, err := generate(fleetKeys[k])
	if err != nil {
		return nil, err
	}
	f.refTrs[k] = tr
	return tr, nil
}

func (f *fleet) reference(i int) (uint64, error) {
	o := f.op(i)
	tr, err := f.refTrace(o.key)
	if err != nil {
		return 0, err
	}
	var want []byte
	switch req := o.body.(type) {
	case *server.AnalyzeRequest:
		want, err = refAnalyze(tr, *req.Beta, req.Algorithm, req.GearSet)
	case *server.ReplayRequest:
		want, err = refReplay(tr, *req.Beta, req.Freqs)
	case *server.AnalyzeBatchRequest:
		want, err = refBatch(tr, *req.Beta, req.Items)
	}
	return digest(want), err
}

func (f *fleet) probes(idx []int) []probe {
	var out []probe
	for _, i := range idx {
		o := f.op(i)
		tr, err := f.refTrace(o.key)
		if err != nil {
			continue
		}
		out = append(out, probe{ref: fleetKeys[o.key], tr: tr, rng: opRNG(f.seed, "probe", i)})
	}
	return out
}

func (f *fleet) layerStats(w *window, out map[string]float64) {
	w.spans.handlerStats(out)
	cacheDelta(f.warm, f.cacheStats(), out)
	if body, err := f.client.get(f.front.url + "/metrics"); err == nil {
		gatewayStats(body, w.attempted(), out)
	}
}

func (f *fleet) facts(ops int) map[string]any {
	return map[string]any{
		"trace_keys":          len(fleetKeys),
		"replay_cache_keys":   len(fleetKeys) * len(betas) * 2,
		"replay_cache_bound":  512,
		"trace_memo_bound":    32,
		"backends":            2,
		"batch_items":         fleetBatchItems,
		"mix_batch_analyze":   []float64{fleetBatchShare, fleetAnalyzeShare},
		"zipf_s":              fleetZipf,
		"query_repeat_share":  repeatShare(f, ops),
		"cache_entries_warm":  f.warm.Entries,
		"cache_misses_warmup": f.warm.Misses,
	}
}
