package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"cfpq/internal/server"
	"cfpq/internal/store"
)

// harness is one in-process cfpqd: a server.Service behind server.Handler on
// a loopback listener, optionally with a durable store attached.
type harness struct {
	svc  *server.Service
	st   *store.Store
	srv  *http.Server
	base string
	done chan error
}

// startHarness serves svc on 127.0.0.1 at a free port.
func startHarness(svc *server.Service, st *store.Store) (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	h := &harness{
		svc:  svc,
		st:   st,
		srv:  &http.Server{Handler: server.Handler(svc), ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { h.done <- h.srv.Serve(ln) }()
	return h, nil
}

// close stops the HTTP server, waits for its serve loop to return and
// closes the store, if any.
func (h *harness) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	err := h.srv.Shutdown(ctx)
	<-h.done
	if h.st != nil {
		if cerr := h.st.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// client is one closed-loop caller on one keep-alive connection.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
	body bytes.Buffer
}

func newClient(base string) *client {
	tr := &http.Transport{
		Proxy:               nil,
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// call sends one request and reads the whole response. The latency spans
// from just before the request is written to the last response byte; the
// returned body is valid until the next call.
func (c *client) call(method, path, contentType string, body []byte) (status int, resp []byte, lat time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	c.body.Reset()
	start := time.Now()
	res, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	_, err = c.body.ReadFrom(res.Body)
	lat = time.Since(start)
	res.Body.Close()
	if err != nil {
		return res.StatusCode, nil, lat, fmt.Errorf("%s %s: reading response: %w", method, path, err)
	}
	return res.StatusCode, c.body.Bytes(), lat, nil
}

// callJSON is call with a JSON body (v marshalled) and a 2xx check; the
// answer is decoded into out when out is non-nil.
func (c *client) callJSON(method, path string, v, out any) (time.Duration, int, error) {
	var body []byte
	if v != nil {
		var err error
		if body, err = json.Marshal(v); err != nil {
			return 0, 0, err
		}
	}
	status, resp, lat, err := c.call(method, path, "application/json", body)
	if err != nil {
		return lat, 0, err
	}
	if status/100 != 2 {
		return lat, len(resp), fmt.Errorf("%s %s: status %d: %s", method, path, status, strings.TrimSpace(string(resp)))
	}
	if out != nil {
		if err := json.Unmarshal(resp, out); err != nil {
			return lat, len(resp), fmt.Errorf("%s %s: decoding answer: %w", method, path, err)
		}
	}
	return lat, len(resp), nil
}

// put uploads a raw document (graph or grammar text).
func (c *client) put(path string, doc []byte) (time.Duration, error) {
	status, resp, lat, err := c.call(http.MethodPut, path, "text/plain", doc)
	if err != nil {
		return lat, err
	}
	if status/100 != 2 {
		return lat, fmt.Errorf("PUT %s: status %d: %s", path, status, strings.TrimSpace(string(resp)))
	}
	return lat, nil
}

// get fetches a route and returns its body (copied).
func (c *client) get(path string) ([]byte, error) {
	status, resp, _, err := c.call(http.MethodGet, path, "", nil)
	if err != nil {
		return nil, err
	}
	if status/100 != 2 {
		return nil, fmt.Errorf("GET %s: status %d", path, status)
	}
	return bytes.Clone(resp), nil
}
