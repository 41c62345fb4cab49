package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/dimemas"
	"repro/internal/server"
)

// clients is the number of closed-loop callers every workload runs: each
// waits for its reply before sending the next operation, as the repo's real
// callers (scripts, optimizers, pwrsimload) do.
const clients = 2

// bench is one workload's system under test. The harness calls setup, then
// drives do from clients goroutines for the measured window, then checks a
// sample of the recorded digests against reference.
type bench interface {
	// setup brings the system to ready; it is the timed part of setup_s.
	setup() error
	// teardown stops everything setup started and waits for it.
	teardown()
	// do runs operation i and returns a digest of its output.
	do(i int) (uint64, error)
	// reference recomputes operation i's expected digest through direct
	// library calls, without the system under test.
	reference(i int) (uint64, error)
	// key is operation i's canonical description; equal keys are repeats.
	key(i int) string
	// probes lists the ladder inputs for a sample of operations.
	probes(idx []int) []probe
	// layerStats adds the per-layer numbers the traced window recorded.
	layerStats(w *window, out map[string]float64)
	// facts describes the workload's inputs for the provenance record.
	facts(ops int) map[string]any
}

// digest hashes an operation's output bytes.
func digest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// opRNG is operation i's private random stream: the same seed and index
// always draw the same operation, whichever client runs it.
func opRNG(seed int64, salt string, i int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, salt, i)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// zipf draws an index in [0, n) with P(k) ∝ 1/(k+1)^s.
func zipf(rng *rand.Rand, n int, s float64) int {
	var total float64
	for k := range n {
		total += math.Pow(float64(k+1), -s)
	}
	u := rng.Float64() * total
	for k := range n {
		u -= math.Pow(float64(k+1), -s)
		if u <= 0 {
			return k
		}
	}
	return n - 1
}

// quantile returns the q-quantile of xs by linear interpolation, NaN for an
// empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// usage is a snapshot of the process's resource counters.
type usage struct {
	wall   time.Time
	cpu    time.Duration
	maxRSS int64 // KiB
	allocs uint64
	gcs    uint64
	gcCPU  float64
	allCPU float64
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func snapshot() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zeroed counters on failure only skew cpu_ms_per_op
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return usage{
		wall:   time.Now(),
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSS: ru.Maxrss,
		allocs: s[0].Value.Uint64(),
		gcs:    s[1].Value.Uint64(),
		gcCPU:  s[2].Value.Float64(),
		allCPU: s[3].Value.Float64(),
	}
}

// opRecord is one finished operation.
type opRecord struct {
	i      int
	lat    time.Duration
	end    time.Time
	digest uint64
	err    error
}

// slices is how many equal parts a window is cut into. Throughput, median
// latency and CPU per operation are reported as the median over the parts,
// so a short burst of contention from outside the process moves one part,
// not the result.
const slices = 10

// window is the outcome of one measured closed-loop run.
type window struct {
	ops        []opRecord // successful operations
	failed     []opRecord
	before     usage
	after      usage
	cuts       []usage // snapshots at the slice boundaries, before to after
	spans      *spans  // nil when untraced
	rejected   int64   // 429/503/504 answers
	elapsedSec float64
}

func (w *window) attempted() int { return len(w.ops) + len(w.failed) }

func (w *window) opsPerSec() float64 { return float64(len(w.ops)) / w.elapsedSec }

// sliceStats returns the median over the window's slices of throughput,
// median latency and CPU time per operation.
func (w *window) sliceStats() (opsPerSec, p50MS, cpuMSPerOp float64) {
	var rates, p50s, cpus []float64
	for k := 1; k < len(w.cuts); k++ {
		from, to := w.cuts[k-1], w.cuts[k]
		var lat []float64
		for _, o := range w.ops {
			if !o.end.Before(from.wall) && o.end.Before(to.wall) {
				lat = append(lat, o.lat.Seconds()*1e3)
			}
		}
		attempted := len(lat)
		for _, o := range w.failed {
			if !o.end.Before(from.wall) && o.end.Before(to.wall) {
				attempted++
			}
		}
		if len(lat) == 0 {
			continue
		}
		rates = append(rates, float64(len(lat))/to.wall.Sub(from.wall).Seconds())
		p50s = append(p50s, median(lat))
		cpus = append(cpus, (to.cpu-from.cpu).Seconds()*1e3/float64(attempted))
	}
	return median(rates), median(p50s), median(cpus)
}

func (w *window) latenciesMS() []float64 {
	out := make([]float64, len(w.ops))
	for k, o := range w.ops {
		out[k] = o.lat.Seconds() * 1e3
	}
	return out
}

// tailChunk is the fewest operations a tail estimate is taken over: one
// hundredth of it, the samples beyond the 99th percentile, is ten.
const tailChunk = 1000

// p99MS is the median of the 99th-percentile latencies of consecutive
// chunks of at least tailChunk operations in completion order, at most
// slices of them, so one stalled stretch of the window moves one chunk. A
// window with fewer operations reports its pooled 99th percentile.
func (w *window) p99MS() float64 {
	ops := append([]opRecord(nil), w.ops...)
	sort.Slice(ops, func(a, b int) bool { return ops[a].end.Before(ops[b].end) })
	n := min(slices, max(1, len(ops)/tailChunk))
	var p99s []float64
	for k := range n {
		chunk := ops[k*len(ops)/n : (k+1)*len(ops)/n]
		lat := make([]float64, len(chunk))
		for j, o := range chunk {
			lat[j] = o.lat.Seconds() * 1e3
		}
		p99s = append(p99s, quantile(lat, 0.99))
	}
	return median(p99s)
}

func (w *window) cpuMSPerOp() float64 {
	return (w.after.cpu - w.before.cpu).Seconds() * 1e3 / float64(max(1, w.attempted()))
}

// drive runs b's operations from clients closed-loop callers for the given
// duration. Operation indices are handed out in order from 0, so a seed
// fixes the sequence whichever client runs which index.
func drive(b bench, d time.Duration, sp *spans) *window {
	w := &window{spans: sp}
	var next atomic.Int64
	recs := make([][]opRecord, clients)
	w.before = snapshot()
	deadline := w.before.wall.Add(d)
	w.cuts = append(w.cuts, w.before)
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for k := 1; k < slices; k++ {
			select {
			case <-time.After(time.Until(w.before.wall.Add(d * time.Duration(k) / slices))):
				w.cuts = append(w.cuts, snapshot())
			case <-stop:
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				dg, err := b.do(i)
				end := time.Now()
				recs[c] = append(recs[c], opRecord{i: i, lat: end.Sub(t0), end: end, digest: dg, err: err})
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-sampled
	w.after = snapshot()
	w.cuts = append(w.cuts, w.after)
	w.elapsedSec = w.after.wall.Sub(w.before.wall).Seconds()
	for _, rs := range recs {
		for _, r := range rs {
			if r.err != nil {
				w.failed = append(w.failed, r)
				if se, ok := r.err.(*statusError); ok && (se.code == 429 || se.code == 503 || se.code == 504) {
					w.rejected++
				}
				continue
			}
			w.ops = append(w.ops, r)
		}
	}
	sort.Slice(w.ops, func(a, b int) bool { return w.ops[a].i < w.ops[b].i })
	return w
}

// statusError is a non-2xx HTTP answer.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// spans collects per-request layer timings of a traced window, keyed by the
// X-Request-ID the daemon and gateway assign and echo.
type spans struct {
	mu      sync.Mutex
	client  map[string]time.Duration
	gateway map[string]time.Duration
	backend map[string]backendSpan
}

type backendSpan struct {
	route string
	d     time.Duration
}

func newSpans() *spans {
	return &spans{
		client:  map[string]time.Duration{},
		gateway: map[string]time.Duration{},
		backend: map[string]backendSpan{},
	}
}

// reset drops the spans recorded so far, such as those of set-up's warming
// requests.
func (sp *spans) reset() {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	clear(sp.client)
	clear(sp.gateway)
	clear(sp.backend)
}

// wrapBackend times every request through a daemon's handler chain.
func (sp *spans) wrapBackend(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		id := w.Header().Get(server.RequestIDHeader)
		sp.mu.Lock()
		sp.backend[id] = backendSpan{route: r.URL.Path, d: d}
		sp.mu.Unlock()
	})
}

// wrapGateway times every request through the gateway's handler. The
// gateway writes the request ID it assigned into the inbound header before
// forwarding, so it is readable after the handler returns.
func (sp *spans) wrapGateway(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		sp.mu.Lock()
		sp.gateway[r.Header.Get(server.RequestIDHeader)] = d
		sp.mu.Unlock()
	})
}

func (sp *spans) clientDone(id string, d time.Duration) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.client[id] = d
	sp.mu.Unlock()
}

// handlerStats reports per-route daemon handler percentiles, the
// gateway hop (gateway span − backend span of the same request), and the
// model residual: the share of client latency not covered by the outermost
// recorded layer span.
func (sp *spans) handlerStats(out map[string]float64) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	routes := map[string][]float64{}
	var hops []float64
	var clientSum, coveredSum float64
	for id, bs := range sp.backend {
		us := float64(bs.d.Nanoseconds()) / 1e3
		routes[bs.route] = append(routes[bs.route], us)
		outer := bs.d
		if g, ok := sp.gateway[id]; ok {
			hops = append(hops, float64((g-bs.d).Nanoseconds())/1e3)
			outer = g
		}
		if c, ok := sp.client[id]; ok {
			clientSum += c.Seconds()
			coveredSum += outer.Seconds()
		}
	}
	for path, name := range map[string]string{"/v1/analyze": "analyze", "/v1/replay": "replay", "/v1/analyze/batch": "analyze_batch"} {
		if xs := routes[path]; len(xs) > 0 {
			out["server.handler_us_p50."+name] = quantile(xs, 0.5)
			out["server.handler_us_p99."+name] = quantile(xs, 0.99)
		}
	}
	if len(hops) > 0 {
		out["gateway.hop_us_p50"] = quantile(hops, 0.5)
		out["gateway.hop_us_p99"] = quantile(hops, 0.99)
	}
	if clientSum > 0 {
		out["harness.model_residual_ratio"] = (clientSum - coveredSum) / clientSum
	}
}

// routeShares is each daemon route's share of the summed handler time.
func (sp *spans) routeShares() map[string]float64 {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	out := map[string]float64{}
	var total float64
	for _, bs := range sp.backend {
		out[bs.route] += bs.d.Seconds()
		total += bs.d.Seconds()
	}
	for r := range out {
		out[r] /= total
	}
	return out
}

// runtimeStats adds the Go runtime's allocation and GC cost of a window.
func runtimeStats(w *window, out map[string]float64) {
	ops := float64(max(1, w.attempted()))
	out["runtime.alloc_kb_per_op"] = float64(w.after.allocs-w.before.allocs) / 1024 / ops
	out["runtime.gc_per_kop"] = float64(w.after.gcs-w.before.gcs) * 1000 / ops
	if cpu := w.after.allCPU - w.before.allCPU; cpu > 0 {
		out["runtime.gc_cpu_fraction"] = (w.after.gcCPU - w.before.gcCPU) / cpu
	}
}

// cacheDelta reports replay-cache activity between two snapshots.
func cacheDelta(before, after dimemas.CacheStats, out map[string]float64) {
	hits := float64(after.Hits - before.Hits)
	misses := float64(after.Misses - before.Misses)
	out["dimemas.cache_misses"] = misses
	out["dimemas.cache_evictions"] = float64(after.Evictions - before.Evictions)
	if hits+misses > 0 {
		out["dimemas.cache_hit_ratio"] = hits / (hits + misses)
	}
}

// gatewayStats reports the hedging and shedding a gateway's /metrics
// exposition counted over ops proxied operations.
func gatewayStats(body []byte, ops int, out map[string]float64) {
	hedges := promSum(body, "pwrsimgw_backend_hedges_total")
	out["gateway.hedges_per_kop"] = hedges * 1000 / float64(max(1, ops))
	out["gateway.hedge_win_ratio"] = 0
	if hedges > 0 {
		out["gateway.hedge_win_ratio"] = promSum(body, "pwrsimgw_backend_hedge_wins_total") / hedges
	}
	out["gateway.sheds"] = promSum(body, "pwrsimgw_shed_total")
}

// promSum adds every sample of one metric family in a Prometheus text
// exposition.
func promSum(body []byte, name string) float64 {
	var sum float64
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		if v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64); err == nil {
			sum += v
		}
	}
	return sum
}

// repeatShare is the fraction of the first ops operations whose canonical
// description equals an earlier one's.
func repeatShare(b bench, ops int) float64 {
	if ops == 0 {
		return 0
	}
	seen := make(map[string]bool, ops)
	rep := 0
	for i := range ops {
		k := b.key(i)
		if seen[k] {
			rep++
		}
		seen[k] = true
	}
	return float64(rep) / float64(ops)
}
