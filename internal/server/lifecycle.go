package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log"
	"net/http"
	"runtime/debug"

	"repro/internal/stagerr"
)

// RequestIDHeader is the header the daemon reads a caller-supplied request
// ID from and echoes — generated server-side when absent — on every
// response, including errors and panics. The same ID rides in every error
// envelope's request_id field, so a client log line and a server log line
// about the same failure can be joined.
const RequestIDHeader = "X-Request-ID"

// maxRequestIDLen bounds an inbound request ID; longer (or non-token) IDs
// are replaced rather than truncated, so a hostile header cannot smuggle
// bytes into logs or envelopes.
const maxRequestIDLen = 64

type requestIDKey struct{}

// requestID returns the ID the lifecycle middleware stored in ctx, or ""
// for contexts that never passed through it (direct library use, tests).
func requestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// RequestIDFor applies the fleet's request-ID rule to an inbound
// X-Request-ID value: a short, plain token — 1..64 bytes of [A-Za-z0-9._-] —
// is kept; anything else, including an absent header, is replaced by a fresh
// 16-hex-digit random ID. The daemon and the gateway both assign IDs through
// it, so a request entering the fleet at either tier keeps one ID end to end.
func RequestIDFor(inbound string) string {
	if validRequestID(inbound) {
		return inbound
	}
	var b [8]byte
	// crypto/rand.Read never fails on supported platforms; a zero ID is
	// still a valid (if degenerate) correlation token.
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// validRequestID reports whether an inbound ID is a short, plain token.
func validRequestID(id string) bool {
	if len(id) == 0 || len(id) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// withLifecycle is the root middleware every route (including /healthz and
// /metrics) runs under. It assigns/echoes the request ID and contains
// handler panics: a panicking request logs the stack, bumps the panic
// counter, and answers a well-formed 500 envelope instead of killing the
// daemon's connection (or, worse, the process).
func (s *Server) withLifecycle(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := RequestIDFor(r.Header.Get(RequestIDHeader))
		w.Header().Set(RequestIDHeader, id)
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id))
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			s.reg.panicked()
			log.Printf("pwrsimd: panic serving %s %s (request %s): %v\n%s",
				r.Method, r.URL.Path, id, v, debug.Stack())
			// A panic after the handler started writing cannot be turned
			// into a clean envelope; the connection is torn down instead.
			if !sw.wrote {
				s.writeError(sw, r, http.StatusInternalServerError, stagerr.Serve, "internal error")
			}
		}()
		next.ServeHTTP(sw, r)
	})
}
