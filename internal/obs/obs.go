// Package obs is the metrics registry pwrsimd and pwrsimgw share: counters
// and gauges, each a single series or a vector over one label, rendered as
// Prometheus text exposition in registration order. A binary declares its
// families once, as a table of Defs, and keeps the returned handles.
package obs

import (
	"fmt"
	"maps"
	"net/http"
	"slices"
	"sync"
)

// Type is a family's Prometheus metric type.
type Type string

const (
	Counter Type = "counter"
	Gauge   Type = "gauge"
)

// Def declares one metric family.
type Def struct {
	Name, Help string
	Type       Type
	// Float renders values with %g; otherwise they render as integers (%d).
	Float bool
	// Label names the family's one label; "" declares a single series,
	// addressed by the label value "".
	Label string
	// Labels, when set, is the fixed label set the family renders, in this
	// order and zero-filled from the first scrape on. Otherwise the family
	// renders the label values observed so far, sorted.
	Labels []string
	// Value, when set, computes a series at scrape time from its label
	// value; the family then stores nothing.
	Value func(label string) float64
	// Into, when set, receives the family's handle.
	Into **Family
}

// Registry holds a binary's families. One lock covers every stored value,
// so a scrape sees all of them at one instant. Safe for concurrent use.
type Registry struct {
	mu   sync.Mutex
	fams []*Family
}

// Family is the handle of one declared family.
type Family struct {
	mu   *sync.Mutex
	def  Def
	vals map[string]float64
}

// New declares a registry's families, in rendering order.
func New(defs ...Def) *Registry {
	r := &Registry{}
	for _, d := range defs {
		f := &Family{mu: &r.mu, def: d, vals: make(map[string]float64)}
		r.fams = append(r.fams, f)
		if d.Into != nil {
			*d.Into = f
		}
	}
	return r
}

// Add adds d to the series with the given label value.
func (f *Family) Add(label string, d float64) {
	f.mu.Lock()
	f.vals[label] += d
	f.mu.Unlock()
}

// Set sets the series with the given label value.
func (f *Family) Set(label string, v float64) {
	f.mu.Lock()
	f.vals[label] = v
	f.mu.Unlock()
}

// Max raises the series with the given label value to v if v is larger.
func (f *Family) Max(label string, v float64) {
	f.mu.Lock()
	if cur, ok := f.vals[label]; !ok || v > cur {
		f.vals[label] = v
	}
	f.mu.Unlock()
}

// Get reads the series with the given label value (0 if never written).
func (f *Family) Get(label string) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.vals[label]
}

// ServeHTTP answers a scrape with the text exposition. Stored values are
// copied under the lock; Value callbacks run after it is released.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	r.mu.Lock()
	snaps := make([]map[string]float64, len(r.fams))
	for i, f := range r.fams {
		snaps[i] = maps.Clone(f.vals)
	}
	r.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	for i, f := range r.fams {
		d := f.def
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", d.Name, d.Help, d.Name, d.Type)
		labels := d.Labels
		switch {
		case d.Label == "":
			labels = []string{""}
		case labels == nil:
			labels = slices.Sorted(maps.Keys(snaps[i]))
		}
		for _, l := range labels {
			v := snaps[i][l]
			if d.Value != nil {
				v = d.Value(l)
			}
			fmt.Fprint(w, d.Name)
			if d.Label != "" {
				fmt.Fprintf(w, "{%s=%q}", d.Label, l)
			}
			if d.Float {
				fmt.Fprintf(w, " %g\n", v)
			} else {
				fmt.Fprintf(w, " %d\n", int64(v))
			}
		}
	}
}
