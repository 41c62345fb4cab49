package obs

import (
	"net/http/httptest"
	"sync"
	"testing"
)

func scrape(r *Registry) string {
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	return rec.Body.String()
}

func TestRenderInRegistrationOrder(t *testing.T) {
	var hits, lat, peak, byStage *Family
	r := New(
		Def{Name: "z_total", Help: "Z.", Type: Counter, Into: &hits},
		Def{Name: "a_seconds", Help: "A.", Type: Gauge, Float: true, Label: "route", Into: &lat},
		Def{Name: "m_max", Help: "M.", Type: Gauge, Float: true, Label: "route", Into: &peak},
		Def{Name: "s_total", Help: "S.", Type: Counter, Label: "stage", Labels: []string{"parse", "cache"}, Into: &byStage},
		Def{Name: "up", Help: "Up.", Type: Gauge, Value: func(string) float64 { return 1 }},
	)
	hits.Add("", 2)
	lat.Add("/b", 0.25)
	lat.Add("/a", 1e-6)
	peak.Max("/a", 0.5)
	peak.Max("/a", 0.25)
	byStage.Add("cache", 1)
	byStage.Add("unlisted", 1) // outside the fixed label set: not rendered
	want := `# HELP z_total Z.
# TYPE z_total counter
z_total 2
# HELP a_seconds A.
# TYPE a_seconds gauge
a_seconds{route="/a"} 1e-06
a_seconds{route="/b"} 0.25
# HELP m_max M.
# TYPE m_max gauge
m_max{route="/a"} 0.5
# HELP s_total S.
# TYPE s_total counter
s_total{stage="parse"} 0
s_total{stage="cache"} 1
# HELP up Up.
# TYPE up gauge
up 1
`
	if got := scrape(r); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	var c *Family
	r := New(Def{Name: "c_total", Help: "C.", Type: Counter, Label: "k", Into: &c})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Add("x", 1)
				if j%100 == 0 {
					scrape(r)
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Get("x"); got != 8000 {
		t.Fatalf("counter = %v, want 8000", got)
	}
}
