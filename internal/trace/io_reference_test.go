package trace

// readReference and validateReference are the line-scanner parser and the
// map-of-slices validator that Read and Validate replaced. They are kept
// verbatim (modulo renames) as the differential reference: Read must return
// the same trace, or the same error text and stage, for every input, and
// Validate the same verdict for every parsed trace.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/faults"
	"repro/internal/stagerr"
)

func readReference(r io.Reader) (*Trace, error) {
	if err := faults.Check(faults.TraceParse); err != nil {
		return nil, stagerr.Wrap(stagerr.Parse, err)
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), MaxLineBytes)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, scanErr(err, 0)
		}
		return nil, stagerr.New(stagerr.Parse, "trace: empty input")
	}
	header := sc.Text()
	if !strings.HasPrefix(header, formatHeader) {
		return nil, stagerr.Errorf(stagerr.Parse, "trace: bad header %q", header)
	}
	app, nranks, err := parseHeader(header)
	if err != nil {
		return nil, stagerr.Wrap(stagerr.Parse, err)
	}
	t := New(app, nranks)
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "%") {
			continue
		}
		fields := strings.Fields(text)
		rec, rank, err := parseRecordReference(fields, nranks)
		if err != nil {
			return nil, stagerr.Errorf(stagerr.Parse, "trace: line %d: %w", line, err)
		}
		t.Ranks[rank] = append(t.Ranks[rank], rec)
	}
	if err := sc.Err(); err != nil {
		return nil, scanErr(err, line)
	}
	return t, nil
}

func parseRecordReference(fields []string, nranks int) (Record, int, error) {
	if len(fields) < 2 {
		return Record{}, 0, fmt.Errorf("short record %v", fields)
	}
	rank, err := strconv.Atoi(fields[1])
	if err != nil || rank < 0 || rank >= nranks {
		return Record{}, 0, fmt.Errorf("bad rank %q", fields[1])
	}
	switch fields[0] {
	case "c":
		if len(fields) != 3 && len(fields) != 4 {
			return Record{}, 0, fmt.Errorf("compute record needs 3 or 4 fields, got %d", len(fields))
		}
		d, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return Record{}, 0, fmt.Errorf("bad duration %q: %w", fields[2], err)
		}
		beta := -1.0
		if len(fields) == 4 {
			beta, err = strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return Record{}, 0, fmt.Errorf("bad beta %q: %w", fields[3], err)
			}
		}
		return Record{Kind: KindCompute, Duration: d, Beta: beta}, rank, nil
	case "s", "r":
		if len(fields) != 5 {
			return Record{}, 0, fmt.Errorf("p2p record needs 5 fields, got %d", len(fields))
		}
		peer, err := strconv.Atoi(fields[2])
		if err != nil {
			return Record{}, 0, fmt.Errorf("bad peer %q: %w", fields[2], err)
		}
		bytes, err := strconv.ParseInt(fields[3], 10, 64)
		if err != nil {
			return Record{}, 0, fmt.Errorf("bad size %q: %w", fields[3], err)
		}
		tag, err := strconv.Atoi(fields[4])
		if err != nil {
			return Record{}, 0, fmt.Errorf("bad tag %q: %w", fields[4], err)
		}
		k := KindSend
		if fields[0] == "r" {
			k = KindRecv
		}
		return Record{Kind: k, Peer: peer, Bytes: bytes, Tag: tag}, rank, nil
	case "g":
		if len(fields) != 4 {
			return Record{}, 0, fmt.Errorf("collective record needs 4 fields, got %d", len(fields))
		}
		coll, err := ParseCollective(fields[2])
		if err != nil {
			return Record{}, 0, err
		}
		bytes, err := strconv.ParseInt(fields[3], 10, 64)
		if err != nil {
			return Record{}, 0, fmt.Errorf("bad size %q: %w", fields[3], err)
		}
		return Record{Kind: KindColl, Coll: coll, Bytes: bytes}, rank, nil
	case "i":
		return Record{Kind: KindIterMark}, rank, nil
	default:
		return Record{}, 0, fmt.Errorf("unknown record type %q", fields[0])
	}
}

type refP2PKey struct {
	src, dst, tag int
}

func validateReference(t *Trace) error {
	if len(t.Ranks) == 0 {
		return ErrNoRanks
	}
	n := len(t.Ranks)
	sends := map[refP2PKey][]int64{}
	recvs := map[refP2PKey][]int64{}
	var collSeq [][]Record // per rank
	for r, recs := range t.Ranks {
		var cs []Record
		for i, rec := range recs {
			switch rec.Kind {
			case KindCompute:
				if rec.Duration < 0 || math.IsNaN(rec.Duration) || math.IsInf(rec.Duration, 1) {
					return fmt.Errorf("%w: rank %d record %d (%v)", ErrNegativeBurst, r, i, rec.Duration)
				}
				if math.IsNaN(rec.Beta) || math.IsInf(rec.Beta, 1) {
					return fmt.Errorf("%w: rank %d record %d (%v)", ErrBadBetaOverride, r, i, rec.Beta)
				}
			case KindSend, KindRecv:
				if rec.Peer < 0 || rec.Peer >= n {
					return fmt.Errorf("%w: rank %d record %d peer %d", ErrBadPeer, r, i, rec.Peer)
				}
				if rec.Peer == r {
					return fmt.Errorf("%w: rank %d record %d", ErrSelfMessage, r, i)
				}
				if rec.Bytes < 0 {
					return fmt.Errorf("%w: rank %d record %d", ErrNegativeSize, r, i)
				}
				if rec.Kind == KindSend {
					k := refP2PKey{r, rec.Peer, rec.Tag}
					sends[k] = append(sends[k], rec.Bytes)
				} else {
					k := refP2PKey{rec.Peer, r, rec.Tag}
					recvs[k] = append(recvs[k], rec.Bytes)
				}
			case KindColl:
				if rec.Bytes < 0 {
					return fmt.Errorf("%w: rank %d record %d", ErrNegativeSize, r, i)
				}
				if rec.Coll >= collMax {
					return fmt.Errorf("trace: rank %d record %d: unknown collective %d", r, i, rec.Coll)
				}
				cs = append(cs, Record{Kind: KindColl, Coll: rec.Coll, Bytes: rec.Bytes})
			case KindIterMark:
				// no payload
			default:
				return fmt.Errorf("trace: rank %d record %d: unknown kind %d", r, i, rec.Kind)
			}
		}
		collSeq = append(collSeq, cs)
	}
	for k, ss := range sends {
		rs := recvs[k]
		if len(ss) != len(rs) {
			return fmt.Errorf("%w: channel %d→%d tag %d has %d sends but %d recvs",
				ErrUnmatchedP2P, k.src, k.dst, k.tag, len(ss), len(rs))
		}
		for i := range ss {
			if ss[i] != rs[i] {
				return fmt.Errorf("%w: channel %d→%d tag %d message %d: %d bytes sent, %d expected",
					ErrUnmatchedP2P, k.src, k.dst, k.tag, i, ss[i], rs[i])
			}
		}
	}
	for k, rs := range recvs {
		if _, ok := sends[k]; !ok && len(rs) > 0 {
			return fmt.Errorf("%w: channel %d→%d tag %d has %d recvs but no sends",
				ErrUnmatchedP2P, k.src, k.dst, k.tag, len(rs))
		}
	}
	for r := 1; r < n; r++ {
		if len(collSeq[r]) != len(collSeq[0]) {
			return fmt.Errorf("%w: rank %d has %d collectives, rank 0 has %d",
				ErrCollMismatch, r, len(collSeq[r]), len(collSeq[0]))
		}
		for i := range collSeq[r] {
			if collSeq[r][i].Coll != collSeq[0][i].Coll {
				return fmt.Errorf("%w: collective %d: rank %d calls %v, rank 0 calls %v",
					ErrCollMismatch, i, r, collSeq[r][i].Coll, collSeq[0][i].Coll)
			}
			if collSeq[r][i].Bytes != collSeq[0][i].Bytes {
				return fmt.Errorf("%w: collective %d: rank %d carries %d bytes, rank 0 carries %d",
					ErrCollMismatch, i, r, collSeq[r][i].Bytes, collSeq[0][i].Bytes)
			}
		}
	}
	return nil
}

// badChannels counts the point-to-point channels whose send and receive
// byte sequences disagree — the channels validateReference may pick from.
func badChannels(t *Trace) int {
	n := len(t.Ranks)
	sends := map[refP2PKey][]int64{}
	recvs := map[refP2PKey][]int64{}
	for r, recs := range t.Ranks {
		for _, rec := range recs {
			if rec.Peer < 0 || rec.Peer >= n {
				continue
			}
			switch rec.Kind {
			case KindSend:
				k := refP2PKey{r, rec.Peer, rec.Tag}
				sends[k] = append(sends[k], rec.Bytes)
			case KindRecv:
				k := refP2PKey{rec.Peer, r, rec.Tag}
				recvs[k] = append(recvs[k], rec.Bytes)
			}
		}
	}
	bad := 0
	for k, ss := range sends {
		if !reflect.DeepEqual(ss, recvs[k]) {
			bad++
		}
	}
	for k := range recvs {
		if _, ok := sends[k]; !ok {
			bad++
		}
	}
	return bad
}

// readSeeds exercise the spellings on which Read's in-place splitter must
// agree with strings.Fields or hand the line to it: CR line ends, the other
// ASCII and the Unicode white space, signs and leading zeros, integers at
// and past the int64 range, the float spellings strconv accepts or rejects,
// blank and indented comment lines, a missing final newline, a lone CR
// inside a line and records with a sixth field.
var readSeeds = []string{
	"#PWRTRACE v1 app=a ranks=2\nc 0 1.5\ns 0 1 1024 7\nr 1 0 1024 7\ng 0 allreduce 8\ng 1 allreduce 8\ni 0\ni 1\n",
	"#PWRTRACE v1 app=a ranks=2\r\nc 0 1.5\r\ns 0 1 1024 7\r\nr 1 0 1024 7\r\n",
	"#PWRTRACE v1 app=a ranks=2\nc\t0\v1.5\fs\ns 0 1 8 7\n\tc 1 2\n",
	"#PWRTRACE v1 app=a ranks=2\nc 0 1.5\nc 1\u00852.5\ns 0 1 8 7\n c 0 1\n",
	"#PWRTRACE v1 app=a ranks=2\ns +0 1 8 7\ns 0 +1 +8 +7\nc 007 1\ns -0 001 0008 -07\n",
	"#PWRTRACE v1 app=a ranks=2\ns 0 1 1234567890123456789 7\ns 0 1 9223372036854775807 0\ns 0 1 9223372036854775808 0\n",
	"#PWRTRACE v1 app=a ranks=2\ns 0 1 8 123456789012345678\ns 0 1 8 1234567890123456789\ns 0 99999999999999999999 8 0\n",
	"#PWRTRACE v1 app=a ranks=2\nc 0 1e309\nc 0 inf\nc 0 1 NaN\nc 1 0x1p-2\nc 1 -Inf +Inf\nc 1 1_0\n",
	"#PWRTRACE v1 app=a ranks=1\n   \n\t\n% top comment\n   % indented comment\n\t%tab comment\nc 0 1",
	"#PWRTRACE v1 app=a ranks=2\nc 0 1\rc 1 2\n\r\n\r",
	"#PWRTRACE v1 app=a ranks=2\nc 0 1 2 3 4\ni 0 a b c d\ni 1 a b c\ns 0 1 8 7 9\n",
	"#PWRTRACE v1 app=a ranks=2\ng 0 gossip 8\ng 0 barrier x\ng 0 barrier -1\nz 0\ncc 0 1\n",
	"#PWRTRACE v1 app=a ranks=2\nc -1 1\nc 2 1\nc x 1\nc 0 -1\nc 0\n",
	"#PWRTRACE v1 app=a ranks=2\n\ns 0 1 8 7\nr 1 0 9 7\ns 1 0 4 3\n",
	"#PWRTRACE v1 app=my app ranks=3 extra\n",
	"#PWRTRACE v1 ranks=1\r\r\n",
	"\r",
	"\n",
	"",
	"hello\n",
	"#PWRTRACE v1 app=a ranks=x\n",
	"#PWRTRACE v1 app=a ranks=0\n",
	"#PWRTRACE v1 app=x ranks=0000000100000000000\n",
}

// declaresTooManyRanks reports whether in's header declares more than
// MaxRanks ranks, reading the count as parseHeader does.
func declaresTooManyRanks(in string) bool {
	header, _, _ := strings.Cut(in, "\n")
	n := 0
	for _, f := range strings.Fields(header) {
		if v, ok := strings.CutPrefix(f, "ranks="); ok {
			var err error
			if n, err = strconv.Atoi(v); err != nil {
				return false
			}
		}
	}
	return n > MaxRanks
}

// assertRejectsTooManyRanks asserts Read refuses an input whose header
// declares more than MaxRanks ranks with a parse-stage error. The reference
// parser allocates a timeline per declared rank before it reads a record,
// so it cannot run such an input.
func assertRejectsTooManyRanks(t *testing.T, in string) {
	t.Helper()
	_, err := Read(strings.NewReader(in))
	if err == nil {
		t.Fatal("Read accepted a header declaring more than MaxRanks ranks")
	}
	if st, ok := stagerr.StageOf(err); !ok || st != stagerr.Parse {
		t.Fatalf("Read error %v has stage %v, want parse", err, st)
	}
}

// FuzzReadMatchesReference asserts Read returns what the reference parser
// returns: the same application name and records, or the same error text
// and stage.
func FuzzReadMatchesReference(f *testing.F) {
	for _, s := range readSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		if declaresTooManyRanks(in) {
			assertRejectsTooManyRanks(t, in)
			return
		}
		assertReadMatchesReference(t, in)
	})
}

func assertReadMatchesReference(t *testing.T, in string) {
	t.Helper()
	got, gerr := Read(strings.NewReader(in))
	want, werr := readReference(strings.NewReader(in))
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("Read error = %v, reference error = %v", gerr, werr)
	}
	if werr != nil {
		if gerr.Error() != werr.Error() {
			t.Fatalf("Read error\n  %q\nreference error\n  %q", gerr.Error(), werr.Error())
		}
		gs, gok := stagerr.StageOf(gerr)
		ws, wok := stagerr.StageOf(werr)
		if gs != ws || gok != wok {
			t.Fatalf("Read stage = %v/%v, reference stage = %v/%v", gs, gok, ws, wok)
		}
		return
	}
	if got.App != want.App {
		t.Fatalf("App = %q, reference %q", got.App, want.App)
	}
	if !sameRanks(got.Ranks, want.Ranks) {
		t.Fatalf("records differ:\n got %+v\nwant %+v", got.Ranks, want.Ranks)
	}
}

// sameRanks is reflect.DeepEqual on record sequences, except that float
// fields compare by bit pattern so a parsed NaN equals itself.
func sameRanks(a, b [][]Record) bool {
	if len(a) != len(b) {
		return false
	}
	for r := range a {
		if (a[r] == nil) != (b[r] == nil) || len(a[r]) != len(b[r]) {
			return false
		}
		for i, x := range a[r] {
			y := b[r][i]
			if math.Float64bits(x.Duration) != math.Float64bits(y.Duration) || math.Float64bits(x.Beta) != math.Float64bits(y.Beta) {
				return false
			}
			x.Duration, x.Beta, y.Duration, y.Beta = 0, 0, 0, 0
			if x != y {
				return false
			}
		}
	}
	return true
}

// TestReadMatchesReferenceAcrossReaders covers readers that do not report
// their length, deliver one byte at a time, or fail part way through.
func TestReadMatchesReferenceAcrossReaders(t *testing.T) {
	errBroken := errors.New("broken pipe")
	for i, s := range readSeeds {
		readers := map[string]func() io.Reader{
			"one-byte":     func() io.Reader { return iotest.OneByteReader(strings.NewReader(s)) },
			"data-err":     func() io.Reader { return iotest.DataErrReader(strings.NewReader(s)) },
			"fails-after":  func() io.Reader { return io.MultiReader(strings.NewReader(s), iotest.ErrReader(errBroken)) },
			"fails-midway": func() io.Reader { return io.MultiReader(strings.NewReader(s[:len(s)/2]), iotest.ErrReader(errBroken)) },
		}
		for name, mk := range readers {
			t.Run(fmt.Sprintf("%d/%s", i, name), func(t *testing.T) {
				got, gerr := Read(mk())
				want, werr := readReference(mk())
				if fmt.Sprint(gerr) != fmt.Sprint(werr) {
					t.Fatalf("Read error = %v, reference error = %v", gerr, werr)
				}
				if werr == nil && (got.App != want.App || !sameRanks(got.Ranks, want.Ranks)) {
					t.Fatalf("Read = %+v, reference = %+v", got, want)
				}
			})
		}
	}
}

// TestReadLineLengthBoundary pins the MaxLineBytes edge against the
// reference: a line of MaxLineBytes-1 bytes parses, one of MaxLineBytes or
// more fails naming its line, with or without a final newline.
func TestReadLineLengthBoundary(t *testing.T) {
	for _, n := range []int{MaxLineBytes - 1, MaxLineBytes, MaxLineBytes + 1} {
		long := "% " + strings.Repeat("x", n-2)
		for _, tail := range []string{"\nc 0 1.5\n", ""} {
			in := "#PWRTRACE v1 app=a ranks=1\n" + long + tail
			t.Run(fmt.Sprintf("%d/%q", n, tail), func(t *testing.T) {
				assertReadMatchesReference(t, in)
				_, err := Read(strings.NewReader(in))
				if wantErr := n >= MaxLineBytes; (err != nil) != wantErr {
					t.Fatalf("line of %d bytes: err = %v, want error %v", n, err, wantErr)
				}
				if err != nil && !strings.Contains(err.Error(), "line 2 exceeds") {
					t.Fatalf("error does not name line 2: %v", err)
				}
			})
		}
	}
}

var validationSentinels = []error{
	ErrNoRanks, ErrBadPeer, ErrSelfMessage, ErrNegativeBurst,
	ErrBadBetaOverride, ErrNegativeSize, ErrUnmatchedP2P, ErrCollMismatch,
}

// FuzzValidateMatchesReference asserts Validate agrees with the reference
// validator on every parsed trace: the same nil-ness and sentinel always,
// and the same message unless two or more channels are unmatched, where
// the reference picked one at random.
func FuzzValidateMatchesReference(f *testing.F) {
	for _, s := range readSeeds {
		f.Add(s)
	}
	f.Add("#PWRTRACE v1 app=a ranks=3\ns 0 1 8 1\ns 0 2 8 1\nr 1 0 8 1\nr 2 0 9 1\ng 0 barrier 0\ng 1 barrier 0\ng 2 barrier 0\n")
	f.Add("#PWRTRACE v1 app=a ranks=3\nr 0 2 8 5\ns 2 0 8 5\ns 1 2 4 0\ng 0 bcast 4\ng 1 bcast 4\ng 2 bcast 8\n")
	f.Add("#PWRTRACE v1 app=a ranks=2\nc 0 -1\ns 0 5 8 0\ns 1 1 8 0\ng 0 reduce -2\n")
	f.Fuzz(func(t *testing.T, in string) {
		if declaresTooManyRanks(in) {
			assertRejectsTooManyRanks(t, in)
			return
		}
		tr, err := readReference(strings.NewReader(in))
		if err != nil {
			return
		}
		got, want := tr.Validate(), validateReference(tr)
		if (got == nil) != (want == nil) {
			t.Fatalf("Validate = %v, reference = %v", got, want)
		}
		if want == nil {
			return
		}
		for _, s := range validationSentinels {
			if errors.Is(got, s) != errors.Is(want, s) {
				t.Fatalf("Validate = %v, reference = %v: sentinel %v differs", got, want, s)
			}
		}
		if errors.Is(want, ErrUnmatchedP2P) && badChannels(tr) > 1 {
			return
		}
		if got.Error() != want.Error() {
			t.Fatalf("Validate = %q, reference = %q", got.Error(), want.Error())
		}
	})
}
