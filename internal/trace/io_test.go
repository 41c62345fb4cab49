package trace

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestWriteReadRoundTrip(t *testing.T) {
	tr := New("BT-MZ 32", 3)
	tr.Add(0, Compute(1.25), ComputeBeta(0.5, 0.7), Send(1, 4096, 3), Coll(CollAllReduce, 8), IterMark())
	tr.Add(1, Recv(0, 4096, 3), Compute(2), Coll(CollAllReduce, 8), IterMark())
	tr.Add(2, Compute(0.001), Coll(CollAllReduce, 8), IterMark())

	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.App != "BT-MZ_32" { // spaces escaped
		t.Errorf("app = %q", back.App)
	}
	if back.NumRanks() != 3 {
		t.Fatalf("ranks = %d", back.NumRanks())
	}
	if !reflect.DeepEqual(back.Ranks, tr.Ranks) {
		t.Fatalf("records differ:\n got %+v\nwant %+v", back.Ranks, tr.Ranks)
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	in := `#PWRTRACE v1 app=x ranks=2
% a comment
c 0 1.5

c 1 2.5
i 0
i 1
`
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	ct := tr.ComputeTimes()
	if ct[0] != 1.5 || ct[1] != 2.5 {
		t.Fatalf("compute times = %v", ct)
	}
}

func TestReadErrors(t *testing.T) {
	bad := []struct {
		name, in string
	}{
		{"empty", ""},
		{"bad header", "hello\n"},
		{"no ranks", "#PWRTRACE v1 app=x\n"},
		{"zero ranks", "#PWRTRACE v1 app=x ranks=0\n"},
		{"bad ranks value", "#PWRTRACE v1 app=x ranks=abc\n"},
		{"rank out of range", "#PWRTRACE v1 app=x ranks=1\nc 5 1.0\n"},
		{"short record", "#PWRTRACE v1 app=x ranks=1\nc\n"},
		{"bad duration", "#PWRTRACE v1 app=x ranks=1\nc 0 xyz\n"},
		{"bad beta", "#PWRTRACE v1 app=x ranks=1\nc 0 1.0 xyz\n"},
		{"compute extra fields", "#PWRTRACE v1 app=x ranks=1\nc 0 1 2 3\n"},
		{"p2p short", "#PWRTRACE v1 app=x ranks=2\ns 0 1 10\n"},
		{"p2p bad peer", "#PWRTRACE v1 app=x ranks=2\ns 0 x 10 0\n"},
		{"p2p bad size", "#PWRTRACE v1 app=x ranks=2\ns 0 1 x 0\n"},
		{"p2p bad tag", "#PWRTRACE v1 app=x ranks=2\ns 0 1 10 x\n"},
		{"coll short", "#PWRTRACE v1 app=x ranks=1\ng 0 barrier\n"},
		{"coll unknown", "#PWRTRACE v1 app=x ranks=1\ng 0 gossip 0\n"},
		{"coll bad size", "#PWRTRACE v1 app=x ranks=1\ng 0 barrier x\n"},
		{"unknown type", "#PWRTRACE v1 app=x ranks=1\nz 0\n"},
	}
	for _, tt := range bad {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Read(strings.NewReader(tt.in)); err == nil {
				t.Errorf("Read(%q) should fail", tt.in)
			}
		})
	}
}

// Property: any generated trace survives a serialization round trip intact.
func TestRoundTripProperty(t *testing.T) {
	prop := func(seed int64, durs []float64) bool {
		tr := New("prop", 2)
		for i, d := range durs {
			dur := d
			if dur < 0 {
				dur = -dur
			}
			if dur > 1e6 {
				dur = 1e6
			}
			tr.Add(i%2, Compute(dur))
		}
		tr.Add(0, Send(1, 128, 0), Coll(CollBarrier, 0), IterMark())
		tr.Add(1, Recv(0, 128, 0), Coll(CollBarrier, 0), IterMark())
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			return false
		}
		back, err := Read(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(back.Ranks, tr.Ranks)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestReadRanksStayAppendSafe guards Read's rank slices: growing
// one rank after parsing must leave every other rank untouched, and the
// replay index must be rebuilt for the longer trace.
func TestReadRanksStayAppendSafe(t *testing.T) {
	var in strings.Builder
	in.WriteString("#PWRTRACE v1 app=a ranks=3\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&in, "c %d 1\n", i%3)
	}
	tr, err := Read(strings.NewReader(in.String()))
	if err != nil {
		t.Fatal(err)
	}
	before := make([][]Record, len(tr.Ranks))
	for r, recs := range tr.Ranks {
		before[r] = append([]Record(nil), recs...)
	}
	builds := 0
	build := func(*Trace) any { builds++; return builds }
	tr.ReplayIndex(build)
	for r := range tr.Ranks {
		for k := 0; k < 64; k++ {
			tr.Add(r, Compute(float64(100+r)))
		}
		for o := range tr.Ranks {
			if o != r && !reflect.DeepEqual(tr.Ranks[o][:len(before[o])], before[o]) {
				t.Fatalf("appending to rank %d changed rank %d", r, o)
			}
		}
		before[r] = append([]Record(nil), tr.Ranks[r]...)
	}
	if got := tr.ReplayIndex(build); got != 2 {
		t.Fatalf("replay index not rebuilt after Add: build count %v", got)
	}
}

// TestReadBlankLinesDoNotAllocate checks that Read's allocations follow the
// records it parses, not the lines it skips: a body of one record per rank
// and 786,432 blank and comment lines costs about one copy of the input.
func TestReadBlankLinesDoNotAllocate(t *testing.T) {
	var in strings.Builder
	in.WriteString("#PWRTRACE v1 app=a ranks=4\n")
	for r := 0; r < 4; r++ {
		fmt.Fprintf(&in, "c %d 1\n", r)
	}
	in.WriteString(strings.Repeat("\n\n%\n", 1<<18))
	text := in.String()
	var allocated uint64 = math.MaxUint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr, err := Read(strings.NewReader(text))
		runtime.ReadMemStats(&after)
		if err != nil || tr.NumRecords() != 4 {
			t.Fatalf("Read = %v records, %v", tr.NumRecords(), err)
		}
		allocated = min(allocated, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := uint64(len(text)) + 64<<10; allocated > limit {
		t.Fatalf("Read allocated %d bytes for a %d-byte input, want at most %d", allocated, len(text), limit)
	}
}
