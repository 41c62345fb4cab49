package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each emits every metric with its unit and fails no operation.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, def := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", def.name, traced), func(t *testing.T) {
				var log strings.Builder
				res, err := measure(def, 7, 500*time.Millisecond, traced, &log)
				if err != nil {
					t.Fatalf("%v\n%s", err, log.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, log.String())
				}
				if len(res.missing) > 0 {
					t.Errorf("metrics not measured: %v", res.missing)
				}
				specs := endToEnd
				if traced {
					specs = perLayer
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(specs))
				}
				for _, m := range specs {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s = %+v, want unit %s", m.name, got, m.unit)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.name, got.Value)
					}
				}
			})
		}
	}
}

// opSequenceDigest hashes the canonical descriptions of a workload's
// first n operations.
func opSequenceDigest(t *testing.T, def workloadDef, seed int64, n int) string {
	t.Helper()
	b, err := def.build(seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for i := range n {
		io.WriteString(h, b.key(i))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestDeterminism checks that a seed fixes the operation sequence and that
// another seed changes it.
func TestDeterminism(t *testing.T) {
	for _, def := range workloads {
		a := opSequenceDigest(t, def, 11, 300)
		if b := opSequenceDigest(t, def, 11, 300); a != b {
			t.Errorf("%s: seed 11 gave two operation sequences", def.name)
		}
		if c := opSequenceDigest(t, def, 12, 300); a == c {
			t.Errorf("%s: seeds 11 and 12 gave the same operation sequence", def.name)
		}
	}
}

// TestBenchmarkJSON checks that the benchmark's declaration at the
// repository root names exactly the workloads and metrics this program
// reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(decl.Workloads), len(workloads))
	}
	for k, w := range decl.Workloads {
		if w.Name != workloads[k].name {
			t.Errorf("workload %d = %q, want %q", k, w.Name, workloads[k].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for k := range got {
			if got[k].Name != want[k].name || got[k].Unit != want[k].unit {
				t.Errorf("%s %d = %s [%s], want %s [%s]", kind, k, got[k].Name, got[k].Unit, want[k].name, want[k].unit)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd)
	check("per_layer", decl.PerLayer, perLayer)
}
