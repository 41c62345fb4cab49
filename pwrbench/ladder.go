package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/dimemas"
	"repro/internal/dvfs"
	"repro/internal/gateway"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ladderReps is how often each rung is timed per probe; rungs report the
// median over every probe and repetition.
const ladderReps = 3

// probe is one ladder input: a trace as the daemon names it, the trace it
// resolves to, and a private random stream for the what-if parameters.
type probe struct {
	ref server.TraceRef
	tr  *trace.Trace
	rng *rand.Rand
}

// ladderRow is one rung of the layer ladder.
type ladderRow struct {
	name string
	us   []float64
}

// ladder times each layer of the request path in isolation on the sampled
// operations' traces: parse/validate, skeleton record, each retime tier,
// analysis and the optimizers, the in-process handler, the real socket and
// the gateway hop. It fills out with every ladder metric and writes the
// rows, each with its share of the row above, to report.
func ladder(probes []probe, out map[string]float64, report io.Writer) error {
	if len(probes) == 0 {
		return fmt.Errorf("ladder: no probes")
	}
	lf, err := newLadderFleet()
	if err != nil {
		return err
	}
	defer lf.close()

	timed := func(f func() error) (float64, error) {
		t0 := time.Now()
		err := f()
		return float64(time.Since(t0).Nanoseconds()) / 1e3, err
	}
	var (
		read, validate, kb, readPerMB, gen, genQuick      []float64
		sim, skel, retime, retimeNs, scaled, delta, batch []float64
		run, runBatch, lib, inproc, socket, viaGW         []float64
		decodePerKB, encode                               []float64
		hReplay, hBatch                                   []float64
		jobsDone                                          []jobStat
	)
	for _, p := range probes {
		rng := p.rng
		tr := p.tr
		n := tr.NumRanks()
		beta := betas[rng.Intn(len(betas))]
		freqs := drawFreqs(rng, n)
		opts := dimemas.Options{Beta: beta, FMax: dvfs.FMax}
		algo, spec := drawGearSet(rng)
		set, err := buildSet(spec)
		if err != nil {
			return err
		}

		// Parse and validate.
		text := p.ref.Text
		if text == "" {
			var sb strings.Builder
			if err := trace.Write(&sb, tr); err != nil {
				return err
			}
			text = sb.String()
		}
		kb = append(kb, float64(len(text))/1024)
		for range ladderReps {
			var parsed *trace.Trace
			us, err := timed(func() (err error) { parsed, err = trace.Read(strings.NewReader(text)); return })
			if err != nil {
				return err
			}
			read = append(read, us)
			readPerMB = append(readPerMB, us/1e3/(float64(len(text))/(1<<20)))
			us, err = timed(parsed.Validate)
			if err != nil {
				return err
			}
			validate = append(validate, us)
		}

		// Workload generation of the probe's instance: quick, and calibrated
		// unless the probe's trace is a quick one (calibration is not part
		// of its path and fails for some interpolated sizes).
		inst, err := probeInstance(p)
		if err != nil {
			return err
		}
		for _, quick := range []bool{p.ref.Quick, true} {
			cfg := workload.DefaultConfig()
			cfg.Iterations = tr.Iterations()
			cfg.SkipPECalibration = quick
			us, err := timed(func() error { _, err := workload.Generate(inst, cfg); return err })
			if err != nil {
				return err
			}
			if quick {
				genQuick = append(genQuick, us)
			} else {
				gen = append(gen, us)
			}
		}

		// Engine: full replay, skeleton record and the retime tiers.
		var sk *dimemas.Skeleton
		scale := make([]float64, n)
		for r := range scale {
			scale[r] = 0.8 + 0.4*rng.Float64()
		}
		cands := make([][]float64, fleetBatchItems)
		for c := range cands {
			cands[c] = append([]float64(nil), freqs...)
			cands[c][rng.Intn(n)] = 1.0 + 1.3*rng.Float64()
		}
		var res dimemas.Result
		var br dimemas.BatchResult
		for range ladderReps {
			o := opts
			o.Freqs = freqs
			us, err := timed(func() error { _, err := dimemas.Simulate(tr, dimemas.DefaultPlatform(), o); return err })
			if err != nil {
				return err
			}
			sim = append(sim, us)
			if us, err = timed(func() (err error) { sk, err = dimemas.BuildSkeleton(tr, dimemas.DefaultPlatform(), opts); return }); err != nil {
				return err
			}
			skel = append(skel, us)
			if us, err = timed(func() error { return sk.RetimeInto(&res, freqs) }); err != nil {
				return err
			}
			retime = append(retime, us)
			retimeNs = append(retimeNs, us*1e3/float64(sk.NumOps()))
			if us, err = timed(func() error { return sk.RetimeScaledInto(&res, freqs, scale) }); err != nil {
				return err
			}
			scaled = append(scaled, us)
			if us, err = timed(func() error { return sk.RetimeBatchInto(&br, cands) }); err != nil {
				return err
			}
			batch = append(batch, us/float64(len(cands)))
		}
		// Delta tier: a seeded sequence of single-rank mutations.
		var st dimemas.DeltaState
		cur := append([]float64(nil), freqs...)
		if _, err := sk.RetimeDelta(&st, cur, nil); err != nil {
			return err
		}
		for range 16 * ladderReps {
			cur[rng.Intn(n)] = 1.0 + 1.3*rng.Float64()
			us, err := timed(func() error { _, err := sk.RetimeDelta(&st, cur, nil); return err })
			if err != nil {
				return err
			}
			delta = append(delta, us)
		}

		// Analysis on a warm cache, single and batched.
		cache := dimemas.NewReplayCache()
		acfg := analysisConfig(tr, beta)
		acfg.Set, acfg.Algorithm, acfg.Cache = set, algoOf(algo), cache
		if _, err := analysis.Run(acfg); err != nil {
			return err
		}
		items := make([]analysis.BatchItem, fleetBatchItems)
		for k := range items {
			a, s := drawGearSet(rng)
			bs, err := buildSet(s)
			if err != nil {
				return err
			}
			items[k] = analysis.BatchItem{Set: bs, Algorithm: algoOf(a)}
		}
		for range ladderReps {
			us, err := timed(func() error { _, err := analysis.Run(acfg); return err })
			if err != nil {
				return err
			}
			run = append(run, us)
			if us, err = timed(func() error { _, _, err := analysis.RunBatch(acfg, items); return err }); err != nil {
				return err
			}
			runBatch = append(runBatch, us/float64(len(items)))
		}

		// One job of each optimizer.
		for _, kind := range jobKinds {
			if kind == "placement" && n > placementMaxRanks {
				continue
			}
			js, err := ladderJob(kind, tr, rng, cache)
			if err != nil {
				return err
			}
			jobsDone = append(jobsDone, js)
		}

		// The same analyze as a request: library call, in-process handler,
		// real socket, gateway. The first pass warms the daemon.
		b := beta
		req := &server.AnalyzeRequest{Trace: p.ref, Algorithm: algo, GearSet: spec, GearSpec: server.GearSpec{Beta: &b}}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		replayBody, _ := json.Marshal(&server.ReplayRequest{Trace: p.ref, Freqs: freqs, GearSpec: server.GearSpec{Beta: &b}})
		batchReq := &server.AnalyzeBatchRequest{Trace: p.ref, GearSpec: server.GearSpec{Beta: &b}}
		for range fleetBatchItems {
			a, s := drawGearSet(rng)
			batchReq.Items = append(batchReq.Items, server.AnalyzeBatchItem{Algorithm: a, GearSet: s})
		}
		batchBody, _ := json.Marshal(batchReq)
		if _, err := lf.inproc("/v1/analyze", body); err != nil {
			return err
		}
		libCfg := acfg
		if p.ref.Text != "" {
			libCfg.Cache = nil // the daemon parses inline traces per request and bypasses its cache
		}
		for range ladderReps {
			us, err := timed(func() error {
				if p.ref.Text != "" {
					parsed, err := trace.Read(strings.NewReader(text))
					if err != nil {
						return err
					}
					libCfg.Trace = parsed
				}
				_, err := analysis.Run(libCfg)
				return err
			})
			if err != nil {
				return err
			}
			lib = append(lib, us)
			var resp []byte
			if us, err = timed(func() (err error) { resp, err = lf.inproc("/v1/analyze", body); return }); err != nil {
				return err
			}
			inproc = append(inproc, us)
			if us, err = timed(func() error { _, err := lf.client.post(lf.backend.url+"/v1/analyze", body, nil); return err }); err != nil {
				return err
			}
			socket = append(socket, us)
			if us, err = timed(func() error { _, err := lf.client.post(lf.front.url+"/v1/analyze", body, nil); return err }); err != nil {
				return err
			}
			viaGW = append(viaGW, us)
			if us, err = timed(func() error { _, err := lf.inproc("/v1/replay", replayBody); return err }); err != nil {
				return err
			}
			hReplay = append(hReplay, us)
			if us, err = timed(func() error { _, err := lf.inproc("/v1/analyze/batch", batchBody); return err }); err != nil {
				return err
			}
			hBatch = append(hBatch, us)

			// JSON on the public wire types.
			us, _ = timed(func() error {
				var r server.AnalyzeRequest
				dec := json.NewDecoder(bytes.NewReader(body))
				dec.DisallowUnknownFields()
				return dec.Decode(&r)
			})
			decodePerKB = append(decodePerKB, us/(float64(len(body))/1024))
			var ar server.AnalyzeResponse
			if err := json.Unmarshal(resp, &ar); err != nil {
				return err
			}
			us, _ = timed(func() error { _, err := json.Marshal(&ar); return err })
			encode = append(encode, us)
		}
	}

	out["trace.read_ms_p50"] = median(read) / 1e3
	out["trace.read_ms_per_mb"] = median(readPerMB)
	out["trace.validate_us_p50"] = median(validate)
	out["trace.kb_per_op"] = mean(kb)
	out["workload.generate_ms_p50"] = median(gen) / 1e3
	out["workload.generate_quick_ms_p50"] = median(genQuick) / 1e3
	out["dimemas.simulate_us_p50"] = median(sim)
	out["dimemas.skeleton_build_us_p50"] = median(skel)
	out["dimemas.retime_us_p50"] = median(retime)
	out["dimemas.retime_ns_per_op"] = median(retimeNs)
	out["dimemas.retime_scaled_us_p50"] = median(scaled)
	out["dimemas.retime_delta_us_p50"] = median(delta)
	out["dimemas.retime_batch_us_per_candidate"] = median(batch)
	out["analysis.run_us_p50"] = median(run)
	out["analysis.run_batch_us_per_item"] = median(runBatch)
	out["server.inproc_us_p50"] = median(inproc)
	out["server.socket_us_p50"] = median(socket)
	overhead := make([]float64, len(inproc))
	for k := range inproc {
		overhead[k] = inproc[k] - lib[k]
	}
	out["server.overhead_us_p50"] = median(overhead)
	// The hop is the difference of per-probe medians: single request pairs
	// are too noisy on the cold path, where one request costs milliseconds.
	var hops []float64
	for k := 0; k < len(socket); k += ladderReps {
		hops = append(hops, median(viaGW[k:k+ladderReps])-median(socket[k:k+ladderReps]))
	}
	out["gateway.hop_us_p50"] = median(hops)
	out["gateway.hop_us_p99"] = quantile(hops, 0.99)
	if body, err := lf.client.get(lf.front.url + "/metrics"); err == nil {
		gatewayStats(body, len(viaGW), out)
	}
	out["server.json_decode_us_per_kb"] = median(decodePerKB)
	out["server.json_encode_us_p50"] = median(encode)
	out["server.handler_us_p50.analyze"] = median(inproc)
	out["server.handler_us_p99.analyze"] = quantile(inproc, 0.99)
	out["server.handler_us_p50.replay"] = median(hReplay)
	out["server.handler_us_p99.replay"] = quantile(hReplay, 0.99)
	out["server.handler_us_p50.analyze_batch"] = median(hBatch)
	out["server.handler_us_p99.analyze_batch"] = quantile(hBatch, 0.99)
	if !hasKind(jobsDone, "placement") {
		// No sampled trace was small enough to search; use the smallest
		// optimize-jobs input so the rung is still measured.
		tr, err := generate(server.TraceRef{App: "CG-32", Iterations: jobIterations})
		if err != nil {
			return err
		}
		js, err := ladderJob("placement", tr, probes[0].rng, nil)
		if err != nil {
			return err
		}
		jobsDone = append(jobsDone, js)
	}
	jobMetrics(jobsDone, out)

	rows := []ladderRow{
		{"parse+validate (trace.Read, Validate)", sumPairs(read, validate)},
		{"skeleton record (BuildSkeleton)", skel},
		{"retime full (RetimeInto)", retime},
		{"retime scaled (RetimeScaledInto)", scaled},
		{"retime delta (RetimeDelta, 1-rank step)", delta},
		{"retime batch (RetimeBatchInto, per candidate)", batch},
		{"analysis (analysis.Run, warm cache)", run},
		{"in-process handler (/v1/analyze)", inproc},
		{"real socket (/v1/analyze)", socket},
		{"gateway (/v1/analyze)", viaGW},
	}
	fmt.Fprintf(report, "ladder: %d probes × %d reps, medians in µs, share = row / row above\n", len(probes), ladderReps)
	prev := 0.0
	for _, r := range rows {
		m := median(r.us)
		share := "-"
		if prev > 0 {
			share = fmt.Sprintf("%.3f", m/prev)
		}
		fmt.Fprintf(report, "  %-48s %12.1f  %s\n", r.name, m, share)
		prev = m
	}
	return nil
}

func ladderJob(kind string, tr *trace.Trace, rng *rand.Rand, cache *dimemas.ReplayCache) (jobStat, error) {
	runJob := jobConfig(kind, tr, nil, rng, cache, false)
	t0 := time.Now()
	_, js, err := runJob()
	if err != nil {
		return js, fmt.Errorf("ladder %s job: %w", kind, err)
	}
	js.kind, js.call = kind, time.Since(t0)
	return js, nil
}

func hasKind(sts []jobStat, kind string) bool {
	for _, st := range sts {
		if st.kind == kind {
			return true
		}
	}
	return false
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(max(1, len(xs)))
}

func sumPairs(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for k := range a {
		out[k] = a[k] + b[k]
	}
	return out
}

// probeInstance is the workload instance a probe's trace was generated
// from; an inline trace names it before its per-operation label.
func probeInstance(p probe) (workload.Instance, error) {
	if p.ref.Text == "" {
		return instanceOf(p.ref)
	}
	name, _, _ := strings.Cut(p.tr.App, ".")
	return workload.FindInstance(name)
}

// ladderFleet is a one-backend fleet built for the ladder, so every
// workload measures the same rungs whatever its own topology.
type ladderFleet struct {
	srv     *server.Server
	backend *listener
	gw      *gateway.Gateway
	front   *listener
	client  *httpClient
}

func newLadderFleet() (*ladderFleet, error) {
	lf := &ladderFleet{srv: server.New(server.Config{}), client: newHTTPClient()}
	var err error
	if lf.backend, err = serve(lf.srv.Handler()); err != nil {
		return nil, err
	}
	lf.srv.MarkReady()
	if lf.gw, err = gateway.New(gateway.Config{Backends: []string{lf.backend.url}}); err != nil {
		lf.close()
		return nil, err
	}
	if lf.front, err = serve(lf.gw.Handler()); err != nil {
		lf.close()
		return nil, err
	}
	lf.gw.CheckNow(context.Background())
	return lf, nil
}

// inproc serves one request through the daemon's handler chain without a
// socket.
func (lf *ladderFleet) inproc(path string, body []byte) ([]byte, error) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	lf.srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, &statusError{code: rec.Code, body: rec.Body.String()}
	}
	return rec.Body.Bytes(), nil
}

func (lf *ladderFleet) close() {
	if lf.front != nil {
		lf.front.close()
	}
	if lf.gw != nil {
		lf.gw.Close()
	}
	if lf.backend != nil {
		lf.backend.close()
	}
	lf.client.tr.CloseIdleConnections()
}
