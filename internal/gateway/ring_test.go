package gateway

import (
	"fmt"
	"testing"

	"repro/internal/server"
)

func ringMembers(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://backend-%d:8723", i)
	}
	return out
}

// Every key must resolve to the same owner on every build of the same
// membership, regardless of member order — determinism is what makes the
// gateway's routing cache-friendly at all.
func TestRingDeterministicAndOrderIndependent(t *testing.T) {
	a := buildRing([]string{"b", "a", "c"}, 64)
	b := buildRing([]string{"c", "b", "a"}, 64)
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key/%d", i)
		if a.owner(k) != b.owner(k) {
			t.Fatalf("key %q: owner differs across member orderings (%q vs %q)", k, a.owner(k), b.owner(k))
		}
	}
}

// With enough virtual nodes, ownership spreads roughly evenly: no backend
// of a 4-member ring should own more than ~2× its fair share.
func TestRingBalancesOwnership(t *testing.T) {
	r := buildRing(ringMembers(4), 128)
	counts := make(map[string]int)
	const keys = 4000
	for i := 0; i < keys; i++ {
		counts[r.owner(fmt.Sprintf("key/%d", i))]++
	}
	for m, c := range counts {
		share := float64(c) / keys
		if share < 0.10 || share > 0.45 {
			t.Fatalf("member %s owns %.1f%% of the keyspace, want a roughly fair share (10%%..45%%)", m, 100*share)
		}
	}
	if len(counts) != 4 {
		t.Fatalf("only %d of 4 members own keys", len(counts))
	}
}

// sequence returns distinct members in preference order; the second entry
// is the hedge replica and must differ from the primary.
func TestRingSequenceDistinct(t *testing.T) {
	r := buildRing(ringMembers(3), 64)
	for i := 0; i < 100; i++ {
		seq := r.sequence(fmt.Sprintf("key/%d", i), 2)
		if len(seq) != 2 {
			t.Fatalf("sequence(%d) returned %d members, want 2", i, len(seq))
		}
		if seq[0] == seq[1] {
			t.Fatalf("sequence(%d) repeated member %q", i, seq[0])
		}
	}
	if got := r.sequence("k", 5); len(got) != 3 {
		t.Fatalf("sequence clamped to %d members, want 3 (the whole ring)", len(got))
	}
	empty := buildRing(nil, 64)
	if got := empty.sequence("k", 2); got != nil {
		t.Fatalf("empty ring sequence = %v, want nil", got)
	}
}

// The consistent-hashing contract: removing one of N members moves only
// ~1/N of the keyspace. This is the property that keeps the surviving
// backends' caches hot through a leave.
func TestRingChurnOnLeave(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		members := ringMembers(n)
		before := buildRing(members, 128)
		after := buildRing(members[:n-1], 128)
		_, frac := churn(before, after)
		want := 1.0 / float64(n)
		if frac < want*0.5 || frac > want*2.0 {
			t.Errorf("leave from %d members moved %.1f%% of keys, want ~%.1f%%", n, 100*frac, 100*want)
		}
	}
}

// Adding a member is symmetric: ~1/(N+1) of keys move to the joiner, and
// every moved key moves TO the new member (never between old members).
func TestRingChurnOnJoinMovesOnlyToJoiner(t *testing.T) {
	members := ringMembers(4)
	before := buildRing(members[:3], 128)
	after := buildRing(members, 128)
	joiner := members[3]
	moved, total := 0, 2000
	for i := 0; i < total; i++ {
		k := fmt.Sprintf("key/%d", i)
		ob, oa := before.owner(k), after.owner(k)
		if ob != oa {
			moved++
			if oa != joiner {
				t.Fatalf("key %q moved %q → %q, but only moves to the joiner %q are allowed", k, ob, oa, joiner)
			}
		}
	}
	frac := float64(moved) / float64(total)
	if frac < 0.10 || frac > 0.45 {
		t.Fatalf("join moved %.1f%% of keys, want ~25%%", 100*frac)
	}
}

// A key's shard identity must mirror the backend's cache keying: explicit
// default iterations and omitted iterations are the same generated
// workload, so they must be the same shard key; distinct workloads must
// not collide.
func TestShardKeyCanonicalization(t *testing.T) {
	implicit := server.TraceRef{App: "IS-32", Quick: true}.Key()
	explicit := server.TraceRef{App: "IS-32", Iterations: 20, Quick: true}.Key()
	if implicit != explicit {
		t.Fatalf("default iterations not canonicalized: %q vs %q", implicit, explicit)
	}
	other := server.TraceRef{App: "IS-32", Iterations: 21, Quick: true}.Key()
	if other == implicit {
		t.Fatal("distinct iteration counts collided onto one shard key")
	}
	text := server.TraceRef{Text: "some trace"}.Key()
	if text == (server.TraceRef{Text: "another trace"}).Key() {
		t.Fatal("distinct inline traces collided onto one shard key")
	}
}

func TestShardKeyExtraction(t *testing.T) {
	cases := []struct {
		name string
		body string
		want string
	}{
		{"analyze", `{"trace": {"app": "IS-32", "quick": true}, "gear_set": {"kind": "uniform"}}`,
			server.TraceRef{App: "IS-32", Quick: true}.Key()},
		{"gearopt joint key", `{"traces": [{"app": "IS-32"}, {"app": "CG-64"}]}`,
			"multi+" + server.TraceRef{App: "IS-32"}.Key() + "+" + server.TraceRef{App: "CG-64"}.Key()},
		{"no trace", `{"x": 1}`, ""},
		{"empty body", ``, ""},
		{"malformed", `{"trace": `, ""},
	}
	for _, tc := range cases {
		if got := shardKey([]byte(tc.body)); got != tc.want {
			t.Errorf("%s: shardKey = %q, want %q", tc.name, got, tc.want)
		}
	}
}
