package server

import (
	"context"
	"net"
	"net/http"
	"time"
)

// Lifecycle states behind GET /readyz. Liveness (/healthz) and readiness
// are deliberately distinct signals: a draining daemon is still alive — it
// answers the requests it already accepted — but a fleet front must stop
// routing new work to it. The gateway's pool membership keys off /readyz.
const (
	stateStarting int32 = iota
	stateReady
	stateDraining
)

// MarkReady transitions the server from starting to ready. Serve and
// ListenAndServe call it once the listener is bound; tests that mount
// Handler() directly call it to simulate a live daemon. A draining server
// stays draining — readiness is not re-acquirable after Shutdown begins.
func (s *Server) MarkReady() {
	s.state.CompareAndSwap(stateStarting, stateReady)
}

// Ready reports whether the server currently advertises readiness.
func (s *Server) Ready() bool { return s.state.Load() == stateReady }

// ReadyBody is the GET /readyz response. Status is "ready", "starting" or
// "draining"; the latter two answer 503 so load balancers need only look at
// the status code.
type ReadyBody struct {
	Status string `json:"status"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch s.state.Load() {
	case stateReady:
		WriteJSON(w, http.StatusOK, ReadyBody{Status: "ready"})
	case stateDraining:
		WriteJSON(w, http.StatusServiceUnavailable, ReadyBody{Status: "draining"})
	default:
		WriteJSON(w, http.StatusServiceUnavailable, ReadyBody{Status: "starting"})
	}
}

// Serve accepts connections on ln until Shutdown, advertising readiness
// from the first accept on.
func (s *Server) Serve(ln net.Listener) error {
	s.MarkReady()
	return s.http.Serve(ln)
}

// ListenAndServe listens on the configured address until Shutdown. The
// server turns ready only once the bind succeeds, so /readyz never says
// "ready" for a daemon that cannot actually accept connections.
func (s *Server) ListenAndServe() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Shutdown drains the server: it immediately stops advertising readiness,
// optionally keeps accepting for Config.DrainGrace so fleet health checks
// can observe the drain and stop routing here before connections start
// being refused, then stops accepting and waits (bounded by ctx) for
// in-flight requests to finish.
func (s *Server) Shutdown(ctx context.Context) error {
	s.state.Store(stateDraining)
	if g := s.cfg.DrainGrace; g > 0 {
		select {
		case <-time.After(g):
		case <-ctx.Done():
		}
	}
	return s.http.Shutdown(ctx)
}
