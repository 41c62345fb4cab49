package dimemas

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/dvfs"
	"repro/internal/stagerr"
	"repro/internal/timemodel"
)

func TestNewEnv(t *testing.T) {
	def := DefaultPlatform()
	slow := def
	slow.Bandwidth = 1e6
	topo := &Topology{Placement: []int{0, 0, 1, 1}, Intra: Link{1e-7, 1e10}, Inter: Link{5e-6, 1e9}}
	type args struct {
		p       Platform
		m       *Machine
		beta    float64
		betaSet bool
		fmax    float64
		nranks  int
	}
	cases := []struct {
		name string
		in   args
		want Env // ignored when wantErr
		// wantErr expects a validate-stage error.
		wantErr bool
	}{
		{"beta unset", args{p: def, nranks: 4}, Env{FlatMachine(def), timemodel.DefaultBeta, dvfs.FMax}, false},
		{"explicit beta 0", args{p: def, betaSet: true, nranks: 4}, Env{FlatMachine(def), 0, dvfs.FMax}, false},
		{"explicit beta 0.3", args{p: def, beta: 0.3, nranks: 4}, Env{FlatMachine(def), 0.3, dvfs.FMax}, false},
		{"beta 1.5", args{p: def, beta: 1.5, betaSet: true, nranks: 4}, Env{}, true},
		{"beta NaN", args{p: def, beta: math.NaN(), betaSet: true, nranks: 4}, Env{}, true},
		{"fmax 0 defaults", args{p: def, fmax: 0, nranks: 4}, Env{FlatMachine(def), timemodel.DefaultBeta, dvfs.FMax}, false},
		{"fmax explicit", args{p: def, fmax: 2.0, nranks: 4}, Env{FlatMachine(def), timemodel.DefaultBeta, 2.0}, false},
		{"fmax -1", args{p: def, fmax: -1, nranks: 4}, Env{}, true},
		{"fmax NaN", args{p: def, fmax: math.NaN(), nranks: 4}, Env{}, true},
		{"fmax +Inf", args{p: def, fmax: math.Inf(1), nranks: 4}, Env{}, true},
		{"zero platform", args{nranks: 4}, Env{FlatMachine(def), timemodel.DefaultBeta, dvfs.FMax}, false},
		{"invalid platform", args{p: Platform{Latency: -1, Bandwidth: 1}, nranks: 4}, Env{}, true},
		{"nil machine", args{p: slow, nranks: 4}, Env{FlatMachine(slow), timemodel.DefaultBeta, dvfs.FMax}, false},
		{"machine keeps its base", args{p: slow, m: &Machine{Base: def, Topo: topo}, nranks: 4},
			Env{Machine{Base: def, Topo: topo}, timemodel.DefaultBeta, dvfs.FMax}, false},
		{"zero base takes platform", args{p: slow, m: &Machine{Topo: topo}, nranks: 4},
			Env{Machine{Base: slow, Topo: topo}, timemodel.DefaultBeta, dvfs.FMax}, false},
		{"zero base, zero platform", args{m: &Machine{Topo: topo}, nranks: 4},
			Env{Machine{Base: def, Topo: topo}, timemodel.DefaultBeta, dvfs.FMax}, false},
		{"rank-count mismatch", args{p: def, m: &Machine{Topo: topo}, nranks: 8}, Env{}, true},
		{"negative nranks skips the rank check", args{p: def, m: &Machine{Topo: topo}, nranks: -1},
			Env{Machine{Base: def, Topo: topo}, timemodel.DefaultBeta, dvfs.FMax}, false},
		{"negative nranks still validates the base", args{p: def, m: &Machine{Base: Platform{Bandwidth: -1}, Topo: topo}, nranks: -1}, Env{}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := tc.in
			got, err := NewEnv(in.p, in.m, in.beta, in.betaSet, in.fmax, in.nranks)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("NewEnv accepted %+v: %+v", in, got)
				}
				if st, _ := stagerr.StageOf(err); st != stagerr.Validate {
					t.Errorf("stage = %q, want validate (err %v)", st, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("NewEnv = %+v, want %+v", got, tc.want)
			}
			if o := got.Options(nil); o.Beta != got.Beta || o.FMax != got.FMax || o.Freqs != nil || o.Ctx != nil {
				t.Errorf("Options = %+v, want β/FMax of the env at every rank's FMax", o)
			}
		})
	}
	// The caller's machine is copied, never written.
	m := &Machine{Topo: topo}
	if _, err := NewEnv(slow, m, 0, false, 0, 4); err != nil {
		t.Fatal(err)
	}
	if m.Base != (Platform{}) {
		t.Errorf("NewEnv wrote the caller's machine: %+v", m.Base)
	}
}
