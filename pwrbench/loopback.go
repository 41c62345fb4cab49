package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/server"
)

// httpClient is a keep-alive client holding at most `clients` connections
// to each host.
type httpClient struct {
	tr *http.Transport
	cl *http.Client
}

func newHTTPClient() *httpClient {
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	return &httpClient{tr: tr, cl: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

// post sends a JSON body and returns the 2xx response body. With spans set
// it records the client-side latency under the response's request ID.
func (h *httpClient) post(url string, body []byte, sp *spans) ([]byte, error) {
	t0 := time.Now()
	resp, err := h.cl.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	sp.clientDone(resp.Header.Get(server.RequestIDHeader), time.Since(t0))
	if resp.StatusCode/100 != 2 {
		return nil, &statusError{code: resp.StatusCode, body: strings.TrimSpace(string(out))}
	}
	return out, nil
}

func (h *httpClient) get(url string) ([]byte, error) {
	resp, err := h.cl.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// listener is one loopback HTTP server run by the benchmark process.
type listener struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

func serve(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return l, nil
}

// close stops the listener and waits for its serve loop to exit.
func (l *listener) close() {
	_ = l.hs.Close() // in-flight requests are abandoned: the window is over
	<-l.done
}
