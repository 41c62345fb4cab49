package server

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/dimemas"
	"repro/internal/dvfs"
	"repro/internal/stagerr"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden /metrics file")

// uptimeLine masks the one time-dependent value of a scrape.
var uptimeLine = regexp.MustCompile(`(?m)^(pwrsimd_uptime_seconds) .*$`)

// TestMetricsGolden pins the daemon's /metrics exposition byte for byte:
// family order, HELP/TYPE lines, label order (sorted routes, stages in
// pipeline order) and %d/%g number formatting. The scenario drives the
// counters directly with fixed durations, so only the uptime is masked.
func TestMetricsGolden(t *testing.T) {
	s := New(Config{})
	s.MarkReady()

	tr := genTestTrace(t, testSpec)
	opts := dimemas.Options{Beta: 0.5, FMax: dvfs.FMax}
	for i := 0; i < 3; i++ { // one miss, two hits: a hit ratio of 2/3
		if _, err := s.Cache().Original(tr, dimemas.DefaultPlatform(), opts); err != nil {
			t.Fatal(err)
		}
	}
	s.reg.enter()
	s.reg.enter()
	s.reg.exit()
	s.reg.reject()
	s.reg.timeout()
	s.reg.timeout()
	s.reg.panicked()
	s.reg.observe("/v1/replay", 1500*time.Millisecond, false)
	s.reg.observe("/v1/replay", 250*time.Millisecond, true)
	s.reg.observe("/v1/analyze", 125*time.Millisecond, false)
	s.reg.observe("/v1/apps", 3*time.Microsecond, false)
	s.reg.stageError(stagerr.Validate)
	s.reg.stageError(stagerr.Validate)
	s.reg.stageError(stagerr.Serve)
	s.reg.observeStage(stagerr.Parse, 40*time.Millisecond)
	s.reg.observeStage(stagerr.Retime, 2*time.Millisecond)
	s.reg.observeStage(stagerr.Retime, 1*time.Millisecond)

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
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
