package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"

	"repro/internal/faults"
	"repro/internal/stagerr"
)

// liftCut is the Content-Length at or above which decode reads a body
// whole and lifts an inline trace text out of it before encoding/json sees
// it. A generated-workload request is a few hundred bytes and an inline
// trace tens to hundreds of kilobytes, so the cut separates the two with
// room on both sides; a small body keeps the streaming decoder, which
// costs less than reading it into a buffer first.
const liftCut = 16 << 10

// traceCarrier is a request type with one TraceRef under the top-level
// "trace" key — every simulation request but gearopt's trace list.
type traceCarrier interface{ traceRef() *TraceRef }

func (r *ReplayRequest) traceRef() *TraceRef       { return &r.Trace }
func (r *AnalyzeRequest) traceRef() *TraceRef      { return &r.Trace }
func (r *AnalyzeBatchRequest) traceRef() *TraceRef { return &r.Trace }
func (r *TracegenRequest) traceRef() *TraceRef     { return &r.Trace }
func (r *PowercapRequest) traceRef() *TraceRef     { return &r.Trace }
func (r *RebalanceRequest) traceRef() *TraceRef    { return &r.Trace }

// decode strictly parses a JSON request body, at most limit bytes of it.
// It doubles as the handler-I/O fault-injection point: a chaos run can make
// any request fail right at the front door, before a slot-holding work
// goroutine exists.
//
// A body of a trace-carrying request whose Content-Length is at least
// liftCut is read whole, into a buffer sized from Content-Length. If its
// "trace" object holds a plain "text" string (see liftText), that literal
// is unescaped in one pass and cut out of the body, and the strict decoder
// reads the rest with "text":"" in its place; the lifted text is stored
// only once that decode succeeds. encoding/json thus still validates and
// decodes every other byte, and skips its three walks over the one string
// that is most of the body. Any other body decodes as sent, so decode
// returns what the strict decoder returns on the original bytes: the same
// value or the same error.
func decode(r *http.Request, limit int64, v any) error {
	if err := faults.Check(faults.HandlerIO); err != nil {
		return stagerr.Wrap(stagerr.Serve, err)
	}
	tc, ok := v.(traceCarrier)
	if !ok || r.ContentLength < liftCut {
		return decodeJSON(r.Body, v)
	}
	buf := bytes.NewBuffer(make([]byte, 0, min(r.ContentLength, limit)+bytes.MinRead))
	if _, err := buf.ReadFrom(r.Body); err != nil {
		return stagerr.Errorf(stagerr.Parse, "body: %w", err)
	}
	body := buf.Bytes()
	start, end, text, ok := liftText(body)
	if !ok {
		return decodeJSON(bytes.NewReader(body), v)
	}
	body[start+1] = '"'
	body = append(body[:start+2], body[end:]...)
	if err := decodeJSON(bytes.NewReader(body), v); err != nil {
		return err
	}
	tc.traceRef().Text = text
	return nil
}

// decodeJSON decodes the first JSON value of r into v, rejecting unknown
// fields; bytes after that value are not read.
func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return stagerr.Errorf(stagerr.Parse, "body: %w", err)
	}
	return nil
}

// liftText finds the "text" member of the top-level "trace" object of a
// JSON body and unescapes it. It returns the literal's span [start, end),
// quotes included, and its value. ok is false — the body must then be
// decoded as sent — unless the walk reaches the top-level object's closing
// brace and finds exactly one key that case-folds to "trace", whose value
// is an object with exactly one key that case-folds to "text", whose value
// is a plain string (see unquote); and no key of either object holds a
// backslash, a control byte or a non-ASCII byte, so that no escaped or
// Unicode-folded spelling can name either field behind the walk's back.
//
// The walk skips every other value without validating it. That is safe:
// wherever the bytes before the literal are not valid JSON, encoding/json
// fails on them before it reaches the literal, with the same error on
// either body; wherever they are valid, the walk reads them as
// encoding/json does, the literal is a string in both bodies and the two
// decoders' states after it are the same.
func liftText(b []byte) (start, end int, text string, ok bool) {
	var traces, texts int
	inTrace := func(key []byte, v int) int {
		if !bytes.EqualFold(key, []byte("text")) {
			return skipValue(b, v)
		}
		texts++
		if v >= len(b) || b[v] != '"' {
			return -1
		}
		e, s, ok := unquote(b, v)
		if !ok {
			return -1
		}
		start, end, text = v, e, s
		return e
	}
	top := func(key []byte, v int) int {
		if !bytes.EqualFold(key, []byte("trace")) {
			return skipValue(b, v)
		}
		traces++
		if v < len(b) && b[v] == '{' {
			return object(b, v, inTrace)
		}
		return skipValue(b, v)
	}
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] != '{' || object(b, i, top) < 0 || traces != 1 || texts != 1 {
		return 0, 0, "", false
	}
	return start, end, text, true
}

// object walks the JSON object opening at b[i], calling member with each
// key and the offset of its value; member returns the offset just past the
// value, or -1 to stop the walk. object returns the offset just past the
// closing brace, or -1 when the walk stops, the object is malformed, or a
// key holds anything but printable ASCII without a backslash.
func object(b []byte, i int, member func(key []byte, v int) int) int {
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return i + 1
	}
	for i < len(b) && b[i] == '"' {
		n := bytes.IndexByte(b[i+1:], '"')
		if n < 0 {
			return -1
		}
		key := b[i+1 : i+1+n]
		for _, c := range key {
			if c < 0x20 || c >= 0x80 || c == '\\' {
				return -1
			}
		}
		i = skipSpace(b, i+n+2)
		if i >= len(b) || b[i] != ':' {
			return -1
		}
		if i = member(key, skipSpace(b, i+1)); i < 0 {
			return -1
		}
		i = skipSpace(b, i)
		if i >= len(b) {
			return -1
		}
		switch b[i] {
		case '}':
			return i + 1
		case ',':
			i = skipSpace(b, i+1)
		default:
			return -1
		}
	}
	return -1
}

// skipValue returns the offset just past the JSON value starting at b[i],
// or -1 if b ends first. It tracks only strings and bracket depth; the
// value's syntax is left to encoding/json.
func skipValue(b []byte, i int) int {
	depth := 0
	for i < len(b) {
		switch b[i] {
		case '"':
			if i = skipString(b, i); i < 0 {
				return -1
			}
			if depth == 0 {
				return i
			}
			continue
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return i
			}
			if depth--; depth == 0 {
				return i + 1
			}
		case ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return i
			}
		}
		i++
	}
	return -1
}

// skipString returns the offset just past the JSON string opening at b[i],
// or -1 if b ends first.
func skipString(b []byte, i int) int {
	for i++; ; i++ {
		n := bytes.IndexByte(b[i:], '"')
		if n < 0 {
			return -1
		}
		i += n
		esc := 0
		for esc < n && b[i-1-esc] == '\\' {
			esc++
		}
		if esc%2 == 0 {
			return i + 1
		}
	}
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// plainByte marks the bytes a plain string literal holds unescaped: 0x20
// to 0x7F but the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unescaped maps the escape letters a plain string literal may use onto
// the byte each stands for; \u is not among them.
var unescaped = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// unquote decodes the JSON string literal opening at b[i] in one pass,
// returning the offset just past its closing quote and its value. ok is
// false unless the literal is plain: bytes 0x20 to 0x7F and the escapes
// \" \\ \/ \b \f \n \r \t only. encoding/json decodes a plain literal
// to exactly these bytes; a \u escape, a control byte (a syntax error) or a
// non-ASCII byte (which encoding/json checks as UTF-8) is left to it.
func unquote(b []byte, i int) (end int, s string, ok bool) {
	var sb strings.Builder
	sb.Grow(len(b) - i) // escapes only shrink the literal
	for i++; i < len(b); {
		j := i
		for j < len(b) && plainByte[b[j]] {
			j++
		}
		sb.Write(b[i:j])
		switch {
		case j == len(b):
			return 0, "", false
		case b[j] == '"':
			return j + 1, sb.String(), true
		case b[j] == '\\' && j+1 < len(b) && unescaped[b[j+1]] != 0:
			sb.WriteByte(unescaped[b[j+1]])
			i = j + 2
		default:
			return 0, "", false
		}
	}
	return 0, "", false
}
