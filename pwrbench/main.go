// Command pwrbench is the repository's benchmark: three closed-loop
// workloads over the daemon, the gateway fleet and the optimizer facade,
// each checked against direct library calls.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash pwrbench/run.sh --workload whatif-fleet --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it measures the end-to-end metrics with tracing off. With
// --trace 1 it runs the same workload and seed untraced and then traced,
// times the layers of a sample of operations down the ladder, and reports
// the per-layer metrics. Human-readable lines come first; the last line of
// standard output is one JSON object.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloadDef names a workload, says why it is in the benchmark, and builds
// its system.
type workloadDef struct {
	name   string
	why    string
	build  func(seed int64, sp *spans) (bench, error)
	sample int // operations the oracle re-checks when there are more
	setups int // set-ups per run; setup_s is their median
}

var workloads = []workloadDef{
	{
		name: "whatif-fleet",
		why: "warm what-if queries through the gateway to two daemons: HTTP, JSON, request handoff and the " +
			"gateway hop dominate, the engine is a minority (cache hit path, full and batch retime tiers)",
		build:  newFleet,
		sample: 256,
		setups: 5,
	},
	{
		name: "ingest-inline",
		why: "cold requests straight to one daemon: inline traces of 40-460 KB that are all distinct plus quick " +
			"keys never requested before, the write-and-parse side the fleet only reads",
		build:  newIngest,
		sample: 96,
		setups: 5,
	},
	{
		name: "optimize-jobs",
		why: "optimizer jobs through the library facade on a shared replay cache: delta and scaled retime " +
			"tiers, Simulate and search logic, with no HTTP, JSON or parsing",
		build:  newJobs,
		sample: 32,
		setups: 15,
	},
}

// metricSpec is one reported metric; the lists mirror BENCHMARK.json.
type metricSpec struct {
	name, unit string
}

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"mem_peak_mb", "MB"},
}

var perLayer = []metricSpec{
	{"gateway.hop_us_p50", "us"},
	{"gateway.hop_us_p99", "us"},
	{"gateway.hedges_per_kop", "count"},
	{"gateway.hedge_win_ratio", "ratio"},
	{"gateway.sheds", "count"},
	{"server.handler_us_p50.analyze", "us"},
	{"server.handler_us_p99.analyze", "us"},
	{"server.handler_us_p50.replay", "us"},
	{"server.handler_us_p99.replay", "us"},
	{"server.handler_us_p50.analyze_batch", "us"},
	{"server.handler_us_p99.analyze_batch", "us"},
	{"server.inproc_us_p50", "us"},
	{"server.socket_us_p50", "us"},
	{"server.overhead_us_p50", "us"},
	{"server.json_decode_us_per_kb", "us/KB"},
	{"server.json_encode_us_p50", "us"},
	{"server.rejected", "count"},
	{"trace.read_ms_per_mb", "ms/MB"},
	{"trace.read_ms_p50", "ms"},
	{"trace.validate_us_p50", "us"},
	{"trace.kb_per_op", "KB"},
	{"workload.generate_ms_p50", "ms"},
	{"workload.generate_quick_ms_p50", "ms"},
	{"dimemas.cache_hit_ratio", "ratio"},
	{"dimemas.cache_misses", "count"},
	{"dimemas.cache_evictions", "count"},
	{"dimemas.simulate_us_p50", "us"},
	{"dimemas.skeleton_build_us_p50", "us"},
	{"dimemas.retime_us_p50", "us"},
	{"dimemas.retime_ns_per_op", "ns"},
	{"dimemas.retime_batch_us_per_candidate", "us"},
	{"dimemas.retime_scaled_us_p50", "us"},
	{"dimemas.retime_delta_us_p50", "us"},
	{"analysis.run_us_p50", "us"},
	{"analysis.run_batch_us_per_item", "us"},
	{"powercap.job_ms_p50", "ms"},
	{"powercap.evals_per_job", "count"},
	{"powercap.us_per_eval", "us"},
	{"gearopt.job_ms_p50", "ms"},
	{"gearopt.evals_per_job", "count"},
	{"gearopt.us_per_eval", "us"},
	{"placement.job_ms_p50", "ms"},
	{"placement.evals_per_job", "count"},
	{"placement.us_per_eval", "us"},
	{"rebalance.job_ms_p50", "ms"},
	{"rebalance.reassignments_per_job", "count"},
	{"rebalance.forecast_fallback_ratio", "ratio"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.gc_per_kop", "count"},
	{"harness.model_residual_ratio", "ratio"},
	{"harness.trace_overhead_ratio", "ratio"},
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// missing lists the metrics the run could not measure.
	missing []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("pwrbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: whatif-fleet, ingest-inline or optimize-jobs")
	seed := fl.Int64("seed", 1, "workload seed")
	seconds := fl.Float64("seconds", 10, "measured window length in seconds")
	traced := fl.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var def *workloadDef
	for k := range workloads {
		if workloads[k].name == *name {
			def = &workloads[k]
		}
	}
	if def == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "pwrbench: need --workload (one of whatif-fleet, ingest-inline, optimize-jobs), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	res, err := measure(*def, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "pwrbench: %v\n", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "pwrbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

// measure runs one workload and returns the result line. Report lines go
// to w as they are produced.
func measure(def workloadDef, seed int64, d time.Duration, traced bool, w io.Writer) (*result, error) {
	fmt.Fprintf(w, "provenance: %s\n", mustJSON(provenance(def, seed, d, traced)))
	b, err := def.build(seed, nil)
	if err != nil {
		return nil, err
	}
	reps := def.setups
	if traced {
		// A traced run measures an untraced and a traced window of half
		// the length each, on the same seed, and reports no set-up time.
		reps, d = 1, d/2
	}
	var setups []float64
	for k := range reps {
		// Every set-up, and the window after the last one, starts from a
		// collected heap, so earlier set-ups' garbage is not charged to
		// later ones.
		runtime.GC()
		t0 := time.Now()
		if err := b.setup(); err != nil {
			b.teardown()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k < reps-1 {
			b.teardown()
		}
	}
	runtime.GC()
	plain := drive(b, d, nil)
	b.teardown()
	report(w, "untraced", plain)
	vals := map[string]float64{}
	win := plain
	if !traced {
		vals["setup_s"] = median(setups)
		vals["ops_per_s"], vals["latency_p50_ms"], vals["cpu_ms_per_op"] = plain.sliceStats()
		vals["latency_p99_ms"] = plain.p99MS()
		vals["mem_peak_mb"] = float64(plain.after.maxRSS) / 1024
		fmt.Fprintf(w, "setup_s samples: %v\n", setups)
	} else {
		sp := newSpans()
		tb, err := def.build(seed, sp)
		if err != nil {
			return nil, err
		}
		if err := tb.setup(); err != nil {
			tb.teardown()
			return nil, fmt.Errorf("traced setup: %w", err)
		}
		sp.reset()
		runtime.GC()
		win = drive(tb, d, sp)
		report(w, "traced", win)
		if shares := sp.routeShares(); len(shares) > 0 {
			fmt.Fprintf(w, "daemon handler time share by route: %s\n", mustJSON(shares))
		}
		tb.layerStats(win, vals)
		tb.teardown()
		vals["server.rejected"] = float64(win.rejected + plain.rejected)
		runtimeStats(win, vals)
		vals["harness.trace_overhead_ratio"] = win.opsPerSec() / plain.opsPerSec()
		// Ladder metrics fill in every layer the window itself does not
		// exercise; the window's own numbers take precedence.
		lad := map[string]float64{}
		if err := ladder(tb.probes(sampleIdx(seed, "ladder", 6, win)), lad, w); err != nil {
			return nil, err
		}
		for k, v := range lad {
			if _, ok := vals[k]; !ok {
				vals[k] = v
			}
		}
		b = tb
	}

	// The oracle: recompute a sample of the window's outputs through
	// direct library calls, after timing ended.
	idx := sampleIdx(seed, "oracle", def.sample, win)
	byIdx := map[int]uint64{}
	for _, o := range win.ops {
		byIdx[o.i] = o.digest
	}
	mismatches := 0
	for _, i := range idx {
		want, err := b.reference(i)
		if err != nil {
			return nil, fmt.Errorf("reference for operation %d: %w", i, err)
		}
		if want != byIdx[i] {
			mismatches++
			fmt.Fprintf(w, "oracle mismatch: operation %d (%s)\n", i, truncate(b.key(i), 120))
		}
	}
	fmt.Fprintf(w, "oracle: %d of %d operations re-checked, %d mismatches\n", len(idx), len(win.ops), mismatches)
	for k, o := range win.failed {
		if k < 5 {
			fmt.Fprintf(w, "failed operation %d: %v\n", o.i, o.err)
		}
	}
	fmt.Fprintf(w, "workload facts: %s\n", mustJSON(b.facts(win.attempted())))

	res := &result{
		Attempted: win.attempted(),
		Failed:    len(win.failed) + mismatches,
		Metrics:   map[string]metricValue{},
	}
	res.Correct = res.Failed == 0
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	for _, m := range specs {
		v, ok := vals[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(w, "metric %s not measured on this workload; reported as 0\n", m.name)
			res.missing = append(res.missing, m.name)
			v = 0
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-40s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return res, nil
}

// report prints a window's end-to-end summary with its sample counts.
func report(w io.Writer, label string, win *window) {
	lat := win.latenciesMS()
	fmt.Fprintf(w, "%s window: %.2fs, ops_attempted %d, ops_failed %d, ops_per_s %.1f, latency p50 %.3f ms p99 %.3f ms over %d samples, cpu_ms_per_op %.3f\n",
		label, win.elapsedSec, win.attempted(), len(win.failed), win.opsPerSec(),
		quantile(lat, 0.5), quantile(lat, 0.99), len(lat), win.cpuMSPerOp())
}

// sampleIdx chooses up to n operation indices of the window, all of them
// when there are few, otherwise a seed-chosen sample.
func sampleIdx(seed int64, salt string, n int, win *window) []int {
	all := make([]int, len(win.ops))
	for k, o := range win.ops {
		all[k] = o.i
	}
	if len(all) <= n {
		return all
	}
	rng := opRNG(seed, salt, len(all))
	rng.Shuffle(len(all), func(a, b int) { all[a], all[b] = all[b], all[a] })
	out := all[:n]
	sort.Ints(out)
	return out
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%q", err.Error())
	}
	return string(b)
}

// provenance records where and what the numbers come from, so runs from
// different machines, days or trees are never mixed silently.
func provenance(def workloadDef, seed int64, d time.Duration, traced bool) map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "none"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"workload":   def.name,
		"why":        def.why,
		"seed":       seed,
		"seconds":    d.Seconds(),
		"traced":     traced,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpu,
		"commit":     commit,
		"tree":       treeDigest("."),
		"clients":    clients,
	}
}

// treeDigest hashes the Go sources and module files under root, which
// identifies the code measured even where no git metadata exists.
func treeDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod")) {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
