package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/stagerr"
	"repro/internal/trace"
	"repro/internal/workload"
)

// decodeTargets builds a fresh value of every request type decode serves
// that may carry inline trace text: the six with one TraceRef and
// gearopt's list.
var decodeTargets = []func() any{
	func() any { return new(ReplayRequest) },
	func() any { return new(AnalyzeRequest) },
	func() any { return new(AnalyzeBatchRequest) },
	func() any { return new(TracegenRequest) },
	func() any { return new(PowercapRequest) },
	func() any { return new(RebalanceRequest) },
	func() any { return new(GearOptRequest) },
}

// decodeReference is the strict decoder decode must agree with: one
// json.Decoder over the body, unknown fields rejected.
func decodeReference(body string, v any) error {
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return stagerr.Errorf(stagerr.Parse, "body: %w", err)
	}
	return nil
}

// assertDecodeMatchesJSON runs body through decode and through the
// reference into a fresh value of target's type, and asserts the same
// value or the same error text and stage.
func assertDecodeMatchesJSON(t *testing.T, body string, target func() any) {
	t.Helper()
	got, want := target(), target()
	gerr := decode(httptest.NewRequest("POST", "/", strings.NewReader(body)), defaultMaxBodyBytes, got)
	werr := decodeReference(body, want)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%T: decode error = %v, reference error = %v", got, gerr, werr)
	}
	if werr != nil {
		if gerr.Error() != werr.Error() {
			t.Fatalf("%T: decode error\n  %q\nreference error\n  %q", got, gerr.Error(), werr.Error())
		}
		gs, gok := stagerr.StageOf(gerr)
		ws, wok := stagerr.StageOf(werr)
		if gs != ws || gok != wok {
			t.Fatalf("%T: decode stage %v/%v, reference stage %v/%v", got, gs, gok, ws, wok)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%T: decode and reference values differ\n  got  %+v\n  want %+v", got, got, want)
	}
}

// assertDecodeMatchesJSONForAll checks body against every request type.
func assertDecodeMatchesJSONForAll(t *testing.T, body string) {
	t.Helper()
	for _, target := range decodeTargets {
		assertDecodeMatchesJSON(t, body, target)
	}
}

// decodeSeeds are bodies that probe each way the lift can apply or must
// stand back, around an escaped trace text.
func decodeSeeds(text string) []string {
	return []string{
		// Plain escapes: lifted.
		`{"trace":{"text":"#PWRTRACE v1 app=x ranks=1\n\t\"\\\/\b\f\r` + text + `"},"gear_set":{"kind":"uniform"}}`,
		`{"trace": {"app": "IS-32", "text": "` + text + `"}, "freqs": [2.3, 1.9], "beta": 0.4}`,
		`  {"beta":0,"trace":{"text":"` + text + `"},"gear_set":{"kind":"custom","freqs":[1,2]},"platform":{"latency":1e-6}}`,
		`{"trace":{"text":""},"gear_set":{"kind":"uniform","pad":"` + text + `"}}`,
		// A \u escape: left to encoding/json.
		`{"trace":{"text":"\u0041` + text + `"}}`,
		`{"trace":{"text":"` + text + `\u00e9"}}`,
		// Duplicate and case-folded keys.
		`{"trace":{"text":"` + text + `","text":"B"}}`,
		`{"trace":{"text":"` + text + `","Text":"B"}}`,
		`{"trace":{"TEXT":"` + text + `"}}`,
		`{"Trace":{"text":"` + text + `"}}`,
		`{"trace":{"text":"` + text + `"},"trace":{"app":"IS-32"}}`,
		`{"trace":{"app":"IS-32"},"TRACE":{"text":"` + text + `"}}`,
		// Escaped keys.
		`{"tr\u0061ce":{"text":"` + text + `"}}`,
		`{"trace":{"t\u0065xt":"` + text + `"}}`,
		`{"trace":{"text":"` + text + `","t\u0065xt":"B"}}`,
		`{"trace":{"text":"` + text + `"},"tr\u0061ce":{"text":"B"}}`,
		// Escaped quotes and backslashes in the strings the walk skips.
		`{"trace":{"app":"x\\","text":"` + text + `"}}`,
		`{"trace":{"app":"\",\"text\":\"` + text + `"}}`,
		`{"gear_set":{"kind":"\"}","trace":{"text":"` + text + `"}}`,
		// Non-ASCII text and keys, valid and invalid UTF-8.
		`{"trace":{"text":"é` + text + `"}}`,
		"{\"trace\":{\"text\":\"\xff" + text + "\"}}",
		`{"trace":{"text":"` + text + `","tèxt":"B"}}`,
		// A control byte in the text: a syntax error.
		"{\"trace\":{\"text\":\"\x01" + text + "\"}}",
		// text and trace that are not a string or an object.
		`{"trace":{"text":1}` + strings.Repeat(" ", len(text)) + `}`,
		`{"trace":null` + strings.Repeat(" ", len(text)) + `}`,
		`{"trace":"` + text + `"}`,
		`{"trace":{"text":["` + text + `"]}}`,
		// Bytes after the object: the strict decoder never reads them.
		`{"trace":{"text":"` + text + `"}} trailing`,
		`{"trace":{"text":"` + text + `"}}{"trace":{"text":"x"}}`,
		// Syntax and field errors after the text.
		`{"trace":{"text":"` + text + `"},}`,
		`{"trace":{"text":"` + text + `" "app":"x"}}`,
		`{"trace":{"text":"` + text + `"}`,
		`{"trace":{"text":"` + text + `","bogus":1}}`,
		`{"trace":{"text":"` + text + `"},"freqs":"fast"}`,
		`{"trace":{"text":"` + text,
		// gearopt's list.
		`{"traces":[{"text":"` + text + `"},{"app":"IS-32"}],"gears":3}`,
	}
}

// FuzzDecodeMatchesJSON asserts decode returns what the strict
// encoding/json decoder returns on the same bytes, for every request type
// (picked by kind): the same value, or the same error text and stage.
// Every body is padded with leading whitespace past liftCut, so each seed
// and each mutation takes the lifting path. The seeds' text is short and
// one exec decodes one type because the fuzzer minimizes every new input
// it keeps, at a cost that grows with the square of the input's length
// and with the cost of one exec; with 16 KiB seeds it spent most of each
// run minimizing. TestDecodeLongTextMatchesJSON runs the same seeds around
// a text that alone is past the cut.
func FuzzDecodeMatchesJSON(f *testing.F) {
	for i, s := range decodeSeeds(`c 0 1.5\n`) {
		for k := range decodeTargets {
			if k == i%len(decodeTargets) || k == len(decodeTargets)-1 {
				f.Add(s, uint8(k))
			}
		}
	}
	f.Fuzz(func(t *testing.T, body string, kind uint8) {
		body = strings.Repeat(" ", max(0, liftCut-len(body))) + body
		assertDecodeMatchesJSON(t, body, decodeTargets[int(kind)%len(decodeTargets)])
	})
}

// TestDecodeLongTextMatchesJSON runs the fuzz seeds, for every request
// type, around an inline text that is past liftCut by itself, as the
// benchmark's traces are.
func TestDecodeLongTextMatchesJSON(t *testing.T) {
	for _, body := range decodeSeeds(strings.Repeat(`c 0 1.5\n`, liftCut/8+1)) {
		assertDecodeMatchesJSONForAll(t, body)
	}
}

// wrfBody builds the inline-text body of a 20-iteration WRF-128
// /v1/analyze request, the largest inline body the benchmark sends.
func wrfBody(tb testing.TB) (text string, body []byte) {
	tb.Helper()
	inst, err := workload.FindInstance("WRF-128")
	if err != nil {
		tb.Fatal(err)
	}
	cfg := workload.DefaultConfig()
	cfg.SkipPECalibration = true
	tr, err := workload.Generate(inst, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var sb strings.Builder
	if err := trace.Write(&sb, tr); err != nil {
		tb.Fatal(err)
	}
	body, err = json.Marshal(AnalyzeRequest{
		Trace:   TraceRef{Text: sb.String()},
		GearSet: GearSetSpec{Kind: "uniform"},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return sb.String(), body
}

// TestDecodeLiftsMarshaledInlineText pins that a body as encoding/json
// writes it takes the lifting path — so a change to the walk cannot
// silently send every inline trace back through encoding/json — and that
// the decoded request is the reference decoder's.
func TestDecodeLiftsMarshaledInlineText(t *testing.T) {
	text, body := wrfBody(t)
	start, end, lifted, ok := liftText(body)
	if !ok {
		t.Fatal("liftText declined a marshaled inline trace")
	}
	literal, err := json.Marshal(text)
	if err != nil {
		t.Fatal(err)
	}
	if lifted != text || !bytes.Equal(body[start:end], literal) {
		t.Fatalf("lifted %d bytes from [%d,%d), want the %d-byte trace text from its literal", len(lifted), start, end, len(text))
	}
	assertDecodeMatchesJSONForAll(t, string(body))
}

// TestOversizedBodyAnswers413 checks both decode paths answer a body of
// MaxBodyBytes normally and one byte more with 413, stage parse. Each body
// ends with its closing brace, so the decoder must read every byte.
func TestOversizedBodyAnswers413(t *testing.T) {
	const text = `#PWRTRACE v1 app=x ranks=1\nc 0 1\n%`
	for _, tc := range []struct {
		name  string
		limit int64
		body  func(n int) string
	}{
		{"streaming", 1024, func(n int) string {
			head := `{"trace":{"app":"IS-32","iterations":3,"quick":true}`
			return head + strings.Repeat(" ", n-len(head)-1) + "}"
		}},
		{"whole body", 4 * liftCut, func(n int) string {
			head := `{"trace":{"text":"` + text
			return head + strings.Repeat("%", n-len(head)-3) + `"}}`
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, Config{MaxBodyBytes: tc.limit})
			at := tc.body(int(tc.limit))
			if int64(len(at)) != tc.limit {
				t.Fatalf("body is %d bytes, want %d", len(at), tc.limit)
			}
			if (len(at) >= liftCut) != (tc.name == "whole body") {
				t.Fatalf("a %d-byte body does not take the %s path", len(at), tc.name)
			}
			resp := postRaw(t, ts.URL+"/v1/replay", at, nil)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("body of MaxBodyBytes: status %d, want 200", resp.StatusCode)
			}
			resp = postRaw(t, ts.URL+"/v1/replay", tc.body(int(tc.limit)+1), nil)
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("body of MaxBodyBytes+1: status %d, want 413", resp.StatusCode)
			}
			if eb := envelope(t, resp); eb.Stage != string(stagerr.Parse) || !strings.Contains(eb.Error, "request body too large") {
				t.Fatalf("envelope %+v, want stage parse and the body-size error", eb)
			}
		})
	}
}

// TestHugeRankCountIsParseError is the regression test for a forty-byte
// body that used to kill the daemon: a header declaring 10^11 ranks made
// trace.Read allocate a timeline per rank.
func TestHugeRankCountIsParseError(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postRaw(t, ts.URL+"/v1/replay", `{"trace":{"text":"#PWRTRACE v1 app=x ranks=0000000100000000000\n"}}`, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if eb := envelope(t, resp); eb.Stage != string(stagerr.Parse) {
		t.Fatalf("stage %q, want parse: %s", eb.Stage, eb.Error)
	}
}

// TestLargeResponseHasContentLength checks a response over 2 KiB — past
// net/http's buffer, where it would otherwise switch to chunked encoding —
// goes out with its Content-Length.
func TestLargeResponseHasContentLength(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postRaw(t, ts.URL+"/v1/tracegen", `{"trace":{"app":"IS-32","iterations":3,"quick":true}}`, nil)
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(body) <= 2048 {
		t.Fatalf("status %d with %d bytes, want 200 with over 2 KiB", resp.StatusCode, len(body))
	}
	if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(body)) {
		t.Fatalf("Transfer-Encoding %v, Content-Length %d, want none and %d", resp.TransferEncoding, resp.ContentLength, len(body))
	}
}
