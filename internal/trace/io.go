package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/faults"
	"repro/internal/stagerr"
)

// Text trace format, one record per line, in the spirit of Dimemas
// tracefiles:
//
//	#PWRTRACE v1 app=<name> ranks=<n>
//	c <rank> <seconds> [beta]     computation burst
//	s <rank> <peer> <bytes> <tag> send
//	r <rank> <peer> <bytes> <tag> recv
//	g <rank> <collective> <bytes> collective
//	i <rank>                      iteration marker
//
// Lines starting with '%' are comments. Records of a rank appear in program
// order; ranks may interleave arbitrarily.

const formatHeader = "#PWRTRACE v1"

// MaxLineBytes bounds one line of trace text: a line of MaxLineBytes or
// more bytes before its newline fails with an error naming that line (the
// limit a bufio.Scanner with a MaxLineBytes buffer enforces, which Read
// keeps). It bounds line length, not memory: Read holds its whole input in
// memory, so callers that take untrusted input bound its size themselves.
const MaxLineBytes = 16 << 20

// MaxRanks bounds the rank count a trace header may declare. Readers
// allocate one timeline per declared rank before reading a record, so an
// unbounded count lets a header of a few dozen bytes demand terabytes; a
// larger count is a parse-stage error.
const MaxRanks = 1 << 16

// scanErr converts a read failure, or bufio.ErrTooLong for an over-long
// line, into a parse-stage error. line is the last complete line; the
// failure is on the next one.
func scanErr(err error, line int) error {
	if errors.Is(err, bufio.ErrTooLong) {
		return stagerr.Errorf(stagerr.Parse, "trace: line %d exceeds max line length (%d bytes)", line+1, MaxLineBytes)
	}
	return stagerr.Wrap(stagerr.Parse, err)
}

// Write serializes the trace in the text format.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%s app=%s ranks=%d\n", formatHeader, escapeApp(t.App), len(t.Ranks)); err != nil {
		return err
	}
	for r, recs := range t.Ranks {
		for _, rec := range recs {
			var err error
			switch rec.Kind {
			case KindCompute:
				if rec.Beta >= 0 {
					_, err = fmt.Fprintf(bw, "c %d %.9g %.9g\n", r, rec.Duration, rec.Beta)
				} else {
					_, err = fmt.Fprintf(bw, "c %d %.9g\n", r, rec.Duration)
				}
			case KindSend:
				_, err = fmt.Fprintf(bw, "s %d %d %d %d\n", r, rec.Peer, rec.Bytes, rec.Tag)
			case KindRecv:
				_, err = fmt.Fprintf(bw, "r %d %d %d %d\n", r, rec.Peer, rec.Bytes, rec.Tag)
			case KindColl:
				_, err = fmt.Fprintf(bw, "g %d %s %d\n", r, rec.Coll, rec.Bytes)
			case KindIterMark:
				_, err = fmt.Fprintf(bw, "i %d\n", r)
			default:
				return stagerr.Errorf(stagerr.Parse, "trace: cannot serialize record kind %d", rec.Kind)
			}
			if err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Read parses a trace in the text format. Failures are parse-stage errors
// (internal/stagerr) carrying the offending line number.
//
// The input is read once into memory, whole, and walked line by line. A
// line of at most five plain ASCII fields — the spelling Write produces —
// is split in place and handed to parseRecord without allocating; any
// other line (a non-ASCII byte or a sixth field) is split by strings.Fields
// for the same parseRecord, so every line is accepted or rejected, with
// the same message, as strings.Fields and parseRecord alone would.
func Read(r io.Reader) (*Trace, error) {
	if err := faults.Check(faults.TraceParse); err != nil {
		return nil, stagerr.Wrap(stagerr.Parse, err)
	}
	in, rerr := readAll(r)
	if in == "" {
		if rerr != nil {
			return nil, scanErr(rerr, 0)
		}
		return nil, stagerr.New(stagerr.Parse, "trace: empty input")
	}
	header, rest, _ := strings.Cut(in, "\n")
	if len(header) >= MaxLineBytes {
		return nil, scanErr(bufio.ErrTooLong, 0)
	}
	header = strings.TrimSuffix(header, "\r")
	if !strings.HasPrefix(header, formatHeader) {
		return nil, stagerr.Errorf(stagerr.Parse, "trace: bad header %q", header)
	}
	app, nranks, err := parseHeader(header)
	if err != nil {
		return nil, stagerr.Wrap(stagerr.Parse, err)
	}
	t := New(strings.Clone(app), nranks)
	// Each rank's first record allocates room for its share of the lines
	// that open with a record letter, plus some slack, so a trace as Write
	// lays it out never regrows a slice. Blank and comment lines do not
	// count, and no record line is shorter than "i 0\n", so the estimate
	// stays within the records the input can hold.
	perRank := min(recordLines(rest), len(rest)/4+1) / nranks
	perRank += min(perRank, 16)
	var buf [maxFields]string // escapes once, through parseRecord's errors
	line := 1
	for rest != "" {
		var text string
		text, rest, _ = strings.Cut(rest, "\n")
		line++
		if len(text) >= MaxLineBytes {
			return nil, scanErr(bufio.ErrTooLong, line-1)
		}
		fields, ok := splitASCII(text, &buf)
		if !ok {
			fields = strings.Fields(text)
		}
		if len(fields) == 0 || strings.HasPrefix(fields[0], "%") {
			continue
		}
		rec, rank, err := parseRecord(fields, nranks)
		if err != nil {
			return nil, stagerr.Errorf(stagerr.Parse, "trace: line %d: %w", line, err)
		}
		if t.Ranks[rank] == nil && perRank > 0 {
			t.Ranks[rank] = make([]Record, 0, perRank)
		}
		t.Ranks[rank] = append(t.Ranks[rank], rec)
	}
	if rerr != nil {
		return nil, scanErr(rerr, line)
	}
	return t, nil
}

// readAll reads r to its end into one string, sized up front when r
// reports how much it holds (as strings.Reader and bytes.Reader do).
func readAll(r io.Reader) (string, error) {
	var sb strings.Builder
	if l, ok := r.(interface{ Len() int }); ok {
		sb.Grow(l.Len())
	}
	_, err := io.Copy(&sb, r)
	return sb.String(), err
}

// recordLines counts the lines of s whose first byte is a record letter.
func recordLines(s string) int {
	n := 0
	for s != "" {
		switch s[0] {
		case 'c', 's', 'r', 'g', 'i':
			n++
		}
		i := strings.IndexByte(s, '\n')
		if i < 0 {
			break
		}
		s = s[i+1:]
	}
	return n
}

// maxFields is the most fields a record carries.
const maxFields = 5

// splitASCII splits text on ASCII white space into buf, as strings.Fields
// would. It reports false, leaving the line to strings.Fields, when text
// holds a non-ASCII byte (which may belong to Unicode white space) or more
// than maxFields fields.
func splitASCII(text string, buf *[maxFields]string) ([]string, bool) {
	n := 0
	for i := 0; i < len(text); {
		switch byteClass[text[i]] {
		case classSpace:
			i++
			continue
		case classOther:
			return nil, false
		}
		if n == maxFields {
			return nil, false
		}
		j := i + 1
		for j < len(text) && byteClass[text[j]] == classField {
			j++
		}
		buf[n] = text[i:j]
		n++
		i = j
	}
	return buf[:n], true
}

// Byte classes for splitASCII: the ASCII white space strings.Fields splits
// on, any other ASCII byte, and the bytes of non-ASCII characters.
const (
	classField = iota
	classSpace
	classOther
)

var byteClass = func() (c [256]uint8) {
	for b := utf8.RuneSelf; b < len(c); b++ {
		c[b] = classOther
	}
	for _, b := range "\t\n\v\f\r " {
		c[b] = classSpace
	}
	return c
}()

func escapeApp(app string) string {
	return strings.Map(func(r rune) rune {
		if r == ' ' || r == '\n' || r == '\t' {
			return '_'
		}
		return r
	}, app)
}

func parseHeader(h string) (app string, nranks int, err error) {
	for _, f := range strings.Fields(h) {
		if v, ok := strings.CutPrefix(f, "app="); ok {
			app = v
		}
		if v, ok := strings.CutPrefix(f, "ranks="); ok {
			nranks, err = strconv.Atoi(v)
			if err != nil {
				return "", 0, fmt.Errorf("trace: bad ranks field %q: %w", v, err)
			}
		}
	}
	if nranks <= 0 {
		return "", 0, fmt.Errorf("trace: header missing positive ranks count: %q", h)
	}
	if nranks > MaxRanks {
		return "", 0, fmt.Errorf("trace: header declares %d ranks, more than the limit %d", nranks, MaxRanks)
	}
	return app, nranks, nil
}

func parseRecord(fields []string, nranks int) (Record, int, error) {
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
