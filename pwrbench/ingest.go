package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/dimemas"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ingestBases are the inline traces, full 20-iteration calibrated
// generations of the Table 3 instances from IS-32 (≈40 KB of text) to
// WRF-128 (≈460 KB); MG-64 (≈710 KB) is left out. Eleven sizes spread the
// request cost evenly, so the latency percentiles do not sit in a gap
// between a few size classes and jump with the mix.
var ingestBases = []string{"IS-32", "CG-32", "IS-64", "BT-MZ-32", "SPECFEM3D-32", "WRF-32",
	"CG-64", "PEPC-128", "SPECFEM3D-96", "MG-32", "WRF-128"}

const (
	// ingestQuickShare of the operations name a quick generated key that
	// no earlier operation of the run requested.
	ingestQuickShare = 0.25
	ingestMinRanks   = 8
	ingestMaxRanks   = 64
	ingestMinIters   = 2
	ingestMaxIters   = 12
)

// inlineBase is one inline trace, prepared before timing: its text and its
// JSON-escaped form split right after the app name, so a per-operation app
// label is a splice rather than a re-encoding.
type inlineBase struct {
	name      string
	text      string // the trace text
	appEnd    int    // offset in text just past the app name
	esc       []byte // the JSON string literal of text
	escAppEnd int    // offset in esc just past the app name
	kilobytes float64
}

// ingestOp is one cold request.
type ingestOp struct {
	path   string
	base   int    // inline base index, or -1 for a quick key
	label  string // the per-operation app-name suffix of an inline trace
	quick  server.TraceRef
	beta   float64
	algo   string
	set    server.GearSetSpec
	freqs  []float64
	replay bool
}

// ingest is the ingest-inline workload: cold requests sent straight to one
// daemon, mostly carrying their trace inline.
type ingest struct {
	seed   int64
	sp     *spans
	bases  []inlineBase
	keys   int // size of the quick key space
	stride int // coprime to keys: op i names key (stride·i + offset) mod keys
	offset int

	client *httpClient
	srv    *server.Server
	l      *listener
	warm   dimemas.CacheStats
}

func newIngest(seed int64, sp *spans) (bench, error) {
	in := &ingest{seed: seed, sp: sp}
	in.keys = len(workload.Apps()) * (ingestMaxRanks - ingestMinRanks + 1) * (ingestMaxIters - ingestMinIters + 1)
	// A golden-ratio stride walks the key space evenly from any offset, so
	// the sizes of the keys a run requests do not depend on the seed; the
	// seed picks only where the walk starts.
	in.offset = opRNG(seed, "ingest-keys", 0).Intn(in.keys)
	in.stride = int(float64(in.keys) * 0.6180339887)
	for gcd(in.stride, in.keys) != 1 {
		in.stride++
	}
	return in, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// quickKey is the generated key of index k in the quick key space.
func (in *ingest) quickKey(k int) server.TraceRef {
	apps := workload.Apps()
	iters := ingestMaxIters - ingestMinIters + 1
	ranks := ingestMaxRanks - ingestMinRanks + 1
	return server.TraceRef{
		App:        apps[k%len(apps)],
		NProcs:     ingestMinRanks + (k/len(apps))%ranks,
		Iterations: ingestMinIters + (k/len(apps)/ranks)%iters,
		Quick:      true,
	}
}

func (in *ingest) op(i int) ingestOp {
	rng := opRNG(in.seed, "ingest", i)
	o := ingestOp{beta: betas[rng.Intn(len(betas))], base: -1}
	o.replay = rng.Intn(2) == 0
	n := 0
	if rng.Float64() < ingestQuickShare {
		o.quick = in.quickKey((in.stride*i + in.offset) % in.keys)
		n = o.quick.NProcs
	} else {
		o.base = rng.Intn(len(ingestBases))
		o.label = fmt.Sprintf(".s%d.op%d", in.seed, i)
	}
	if o.replay {
		o.path = "/v1/replay"
		if rng.Intn(2) == 0 {
			if n == 0 {
				n = ranksOf(server.TraceRef{App: ingestBases[o.base]})
			}
			o.freqs = drawFreqs(rng, n)
		}
	} else {
		o.path = "/v1/analyze"
		o.algo, o.set = drawGearSet(rng)
	}
	return o
}

// body encodes an operation's request. An inline trace is spliced into the
// prepared JSON literal; everything else is a small json.Marshal.
func (in *ingest) body(o ingestOp) ([]byte, error) {
	gs := server.GearSpec{Beta: &o.beta}
	var rest any = &server.AnalyzeRequest{Trace: o.quick, Algorithm: o.algo, GearSet: o.set, GearSpec: gs}
	if o.replay {
		rest = &server.ReplayRequest{Trace: o.quick, Freqs: o.freqs, GearSpec: gs}
	}
	b, err := json.Marshal(rest)
	if err != nil || o.base < 0 {
		return b, err
	}
	const empty = `{"trace":{}`
	if !bytes.HasPrefix(b, []byte(empty)) {
		return nil, fmt.Errorf("unexpected request encoding %.40s", b)
	}
	base := &in.bases[o.base]
	out := make([]byte, 0, len(b)+len(base.esc)+len(o.label)+16)
	out = append(out, `{"trace":{"text":`...)
	out = append(out, base.esc[:base.escAppEnd]...)
	out = append(out, o.label...)
	out = append(out, base.esc[base.escAppEnd:]...)
	out = append(out, '}')
	return append(out, b[len(empty):]...), nil
}

// inlineText is the trace text an inline operation carries.
func (in *ingest) inlineText(o ingestOp) string {
	base := &in.bases[o.base]
	return base.text[:base.appEnd] + o.label + base.text[base.appEnd:]
}

func (in *ingest) key(i int) string {
	o := in.op(i)
	if o.base >= 0 {
		return "inline:" + ingestBases[o.base] + o.label
	}
	b, _ := json.Marshal(o.quick) // a TraceRef always marshals
	return "quick:" + string(b)
}

// setup prepares the inline request bodies, then starts the daemon. The
// bodies are the benchmark's own inputs, but generating them is the
// workload's set-up cost (workload.Generate and trace.Write), so it is
// timed with the daemon start.
func (in *ingest) setup() error {
	in.bases = in.bases[:0]
	for _, name := range ingestBases {
		tr, err := generate(server.TraceRef{App: name})
		if err != nil {
			return err
		}
		var sb strings.Builder
		if err := trace.Write(&sb, tr); err != nil {
			return err
		}
		text := sb.String()
		esc, err := json.Marshal(text)
		if err != nil {
			return err
		}
		tag := "app=" + name
		in.bases = append(in.bases, inlineBase{
			name:      name,
			text:      text,
			appEnd:    strings.Index(text, tag) + len(tag),
			esc:       esc,
			escAppEnd: bytes.Index(esc, []byte(tag)) + len(tag),
			kilobytes: float64(len(text)) / 1024,
		})
	}
	in.client = newHTTPClient()
	in.srv = server.New(server.Config{})
	h := in.srv.Handler()
	if in.sp != nil {
		h = in.sp.wrapBackend(h)
	}
	var err error
	if in.l, err = serve(h); err != nil {
		return err
	}
	in.srv.MarkReady()
	if _, err := in.client.get(in.l.url + "/readyz"); err != nil {
		return err
	}
	in.warm = in.srv.Cache().Stats()
	return nil
}

func (in *ingest) teardown() {
	if in.l != nil {
		in.l.close()
	}
	if in.client != nil {
		in.client.tr.CloseIdleConnections()
	}
	in.l, in.srv = nil, nil
}

func (in *ingest) do(i int) (uint64, error) {
	o := in.op(i)
	body, err := in.body(o)
	if err != nil {
		return 0, err
	}
	out, err := in.client.post(in.l.url+o.path, body, in.sp)
	if err != nil {
		return 0, err
	}
	return digest(out), nil
}

// opTrace is the trace the daemon resolves an operation to.
func (in *ingest) opTrace(o ingestOp) (server.TraceRef, *trace.Trace, error) {
	if o.base < 0 {
		tr, err := generate(o.quick)
		return o.quick, tr, err
	}
	text := in.inlineText(o)
	tr, err := trace.Read(strings.NewReader(text))
	return server.TraceRef{Text: text}, tr, err
}

func (in *ingest) reference(i int) (uint64, error) {
	o := in.op(i)
	_, tr, err := in.opTrace(o)
	if err != nil {
		return 0, err
	}
	var want []byte
	if o.replay {
		want, err = refReplay(tr, o.beta, o.freqs)
	} else {
		want, err = refAnalyze(tr, o.beta, o.algo, o.set)
	}
	return digest(want), err
}

func (in *ingest) probes(idx []int) []probe {
	var out []probe
	for _, i := range idx {
		ref, tr, err := in.opTrace(in.op(i))
		if err != nil {
			continue
		}
		out = append(out, probe{ref: ref, tr: tr, rng: opRNG(in.seed, "probe", i)})
	}
	return out
}

func (in *ingest) layerStats(w *window, out map[string]float64) {
	w.spans.handlerStats(out)
	cacheDelta(in.warm, in.srv.Cache().Stats(), out)
}

func (in *ingest) facts(ops int) map[string]any {
	var inline, quick, inlineRep, quickRep int
	var kb float64
	seen := map[string]bool{}
	for i := range ops {
		o := in.op(i)
		k := in.key(i)
		rep := seen[k]
		seen[k] = true
		if o.base >= 0 {
			inline++
			kb += in.bases[o.base].kilobytes
			if rep {
				inlineRep++
			}
		} else {
			quick++
			if rep {
				quickRep++
			}
		}
	}
	sizes := map[string]float64{}
	for _, b := range in.bases {
		sizes[b.name] = b.kilobytes
	}
	return map[string]any{
		"inline_ops":             inline,
		"inline_repeat_share":    float64(inlineRep) / float64(max(1, inline)),
		"inline_kb_mean":         kb / float64(max(1, inline)),
		"inline_kb_by_trace":     sizes,
		"quick_key_ops":          quick,
		"quick_key_repeat_share": float64(quickRep) / float64(max(1, quick)),
		"quick_key_space":        in.keys,
		"trace_memo_bound":       32,
		"replay_cache_bound":     512,
		"replay_cache_keys":      2 * quick,
	}
}
