package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"sos/internal/server"
)

// loadConns is the number of client connections (and load goroutines)
// the benchmark drives the service with.
const loadConns = 2

// service is an in-process sosd: an internal/server instance behind a
// real HTTP server on a loopback port, and the client that talks to it.
type service struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

// startService starts a server with cfg on a free loopback port.
func startService(cfg server.Config) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &service{
		srv:  server.New(cfg),
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     loadConns,
			MaxIdleConnsPerHost: loadConns,
			DisableCompression:  true,
		}},
		served: make(chan error, 1),
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// post sends one request and returns the status code and body.
func (s *service) post(path string, body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// close drains the solver, stops the HTTP server and waits for it.
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errSrv := s.srv.Shutdown(ctx)
	errHTTP := s.hs.Shutdown(ctx)
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		errHTTP = errors.Join(errHTTP, err)
	}
	s.client.CloseIdleConnections()
	return errors.Join(errSrv, errHTTP)
}
