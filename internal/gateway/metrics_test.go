package gateway

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden /metrics file")

// uptimeLine masks the one time-dependent value of a scrape.
var uptimeLine = regexp.MustCompile(`(?m)^(pwrsimgw_uptime_seconds) .*$`)

// TestMetricsGolden pins the gateway's /metrics exposition byte for byte:
// family order, HELP/TYPE lines, backends zero-filled over the sorted pool,
// sorted routes and %d/%g number formatting. The backends are never
// contacted; the scenario sets one ready and drives the counters directly,
// so only the uptime is masked.
func TestMetricsGolden(t *testing.T) {
	const a, b = "http://10.0.0.1:8723", "http://10.0.0.2:8723"
	g, err := New(Config{Backends: []string{b, a}})
	if err != nil {
		t.Fatal(err)
	}
	g.backends[a].state.Store(backendReady)
	g.backends[b].state.Store(backendWarming)
	g.reg.attempt(a, false)
	g.reg.attempt(a, false)
	g.reg.attempt(a, true)
	g.reg.attemptError(a)
	g.reg.hedgeWin(a)
	g.reg.shedOne()
	g.reg.shedOne()
	g.reg.noReady()
	g.reg.timeoutOne()
	g.reg.warmupIssued()
	g.reg.rebalanced(3, 0.046875)
	g.reg.rebalanced(5, 1.0/3)
	g.reg.observe("/v1/replay", 1500*time.Millisecond)
	g.reg.observe("/v1/analyze", 250*time.Millisecond)
	g.reg.observe("/v1/analyze", 125*time.Millisecond)

	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	got := uptimeLine.ReplaceAll(rec.Body.Bytes(), []byte("$1 <masked>"))
	path := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("/metrics differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
