package trace

import (
	"bufio"
	"fmt"
	"strings"
	"testing"

	"repro/internal/stagerr"
)

// TestReadLineLongerThanScannerDefault is the regression test for the
// latent bufio.Scanner 64 KiB token limit: before Read configured an
// explicit buffer, any line past 64 KiB aborted the whole parse with
// "bufio.Scanner: token too long".
func TestReadLineLongerThanScannerDefault(t *testing.T) {
	long := "% " + strings.Repeat("x", 1<<20)
	in := "#PWRTRACE v1 app=a ranks=1\n" + long + "\nc 0 1.5\n"
	tr, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatalf("1 MiB comment line failed to parse: %v", err)
	}
	if got := tr.NumRecords(); got != 1 {
		t.Fatalf("records = %d, want 1", got)
	}
}

// TestReadLineOverMaxLineBytes proves a line past the explicit bound fails
// with a parse-stage error naming the offending line, not the cryptic
// bufio sentinel.
func TestReadLineOverMaxLineBytes(t *testing.T) {
	var sb strings.Builder
	sb.Grow(MaxLineBytes + 64)
	sb.WriteString("#PWRTRACE v1 app=a ranks=1\n% ")
	sb.WriteString(strings.Repeat("x", MaxLineBytes+1))
	_, err := Read(strings.NewReader(sb.String()))
	if err == nil {
		t.Fatal("over-long line parsed without error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "line 2") || !strings.Contains(msg, "exceeds max line length") {
		t.Fatalf("error does not name the offending line: %v", err)
	}
	if st, ok := stagerr.StageOf(err); !ok || st != stagerr.Parse {
		t.Fatalf("stage = %v/%v, want parse", st, ok)
	}
}

// TestScanErrMapsTooLong pins the scanner-failure translation directly.
func TestScanErrMapsTooLong(t *testing.T) {
	err := scanErr(bufio.ErrTooLong, 41)
	if !strings.Contains(err.Error(), "line 42") {
		t.Fatalf("scanErr(ErrTooLong, 41) = %v, want mention of line 42", err)
	}
	if st, ok := stagerr.StageOf(err); !ok || st != stagerr.Parse {
		t.Fatalf("stage = %v/%v, want parse", st, ok)
	}
}

// TestReadBoundsDeclaredRanks pins the rank-count bound: a header may
// declare MaxRanks ranks, and one more is a parse-stage error raised
// before any per-rank allocation.
func TestReadBoundsDeclaredRanks(t *testing.T) {
	tr, err := Read(strings.NewReader(fmt.Sprintf("#PWRTRACE v1 app=a ranks=%d\nc 0 1\n", MaxRanks)))
	if err != nil {
		t.Fatalf("MaxRanks ranks rejected: %v", err)
	}
	if tr.NumRanks() != MaxRanks {
		t.Fatalf("parsed %d ranks, want %d", tr.NumRanks(), MaxRanks)
	}
	for _, n := range []string{fmt.Sprint(MaxRanks + 1), "0000000100000000000"} {
		_, err := Read(strings.NewReader("#PWRTRACE v1 app=a ranks=" + n + "\n"))
		if err == nil || !strings.Contains(err.Error(), "more than the limit") {
			t.Fatalf("ranks=%s: err = %v, want the rank-count limit", n, err)
		}
		if st, ok := stagerr.StageOf(err); !ok || st != stagerr.Parse {
			t.Fatalf("ranks=%s: stage = %v/%v, want parse", n, st, ok)
		}
	}
}

// FuzzRead asserts the parser never panics and every failure is a
// parse-stage error.
func FuzzRead(f *testing.F) {
	f.Add("#PWRTRACE v1 app=a ranks=2\nc 0 1.5\ns 0 1 1024 7\nr 1 0 1024 7\ni 0\ni 1\n")
	f.Add("")
	f.Add("#PWRTRACE v1 app=a ranks=1\nc 0")
	f.Add("#PWRTRACE v1 app=a ranks=0\n")
	f.Add("#PWRTRACE v1 app=a ranks=1\nc 0 nope\n")
	f.Add("#PWRTRACE v1 app=a ranks=1\ng 0 allreduce x\n")
	f.Add("#PWRTRACE v1 app=a ranks=1\nz 0\n")
	f.Add("#PWRTRACE v1 app=x ranks=0000000100000000000\n")
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := Read(strings.NewReader(in))
		if err != nil {
			if st, ok := stagerr.StageOf(err); !ok || st != stagerr.Parse {
				t.Fatalf("non-parse-stage parse failure: %v", err)
			}
			return
		}
		if tr.NumRanks() <= 0 {
			t.Fatalf("parsed trace with %d ranks", tr.NumRanks())
		}
	})
}
