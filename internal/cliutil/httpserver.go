package cliutil

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"
)

// The bounds every daemon's server keeps: reading a request's headers, and
// a keep-alive connection idle between requests.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// HTTPServerConfig bundles the timeout and shutdown policy shared by the
// repo's HTTP daemons (rtrankd, gpserver). The zero value gives the defaults
// below.
type HTTPServerConfig struct {
	// ReadTimeout bounds reading a whole request, body included (default
	// 1m — stripe uploads to gpserver can be large).
	ReadTimeout time.Duration
	// WriteTimeout bounds writing a response, measured from the end of the
	// header read; it must cover the slowest expected query (default 5m).
	WriteTimeout time.Duration
	// ShutdownGrace is how long a graceful shutdown waits for in-flight
	// requests before forcing connections closed (default 10s).
	ShutdownGrace time.Duration
}

func (c HTTPServerConfig) withDefaults() HTTPServerConfig {
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = time.Minute
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 5 * time.Minute
	}
	if c.ShutdownGrace <= 0 {
		c.ShutdownGrace = 10 * time.Second
	}
	return c
}

// ListenAndServe listens on addr and serves handler until ctx is cancelled,
// then shuts down gracefully: it stops accepting connections, waits up to
// ShutdownGrace for in-flight requests to drain, and only then returns. The
// onListen callback (optional) receives the bound address — useful with a
// ":0" ephemeral port. A clean shutdown returns nil.
func ListenAndServe(ctx context.Context, addr string, handler http.Handler, cfg HTTPServerConfig, onListen func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if onListen != nil {
		onListen(ln.Addr())
	}
	return Serve(ctx, ln, handler, cfg)
}

// Serve is ListenAndServe over an existing listener; it takes ownership of
// ln.
func Serve(ctx context.Context, ln net.Listener, handler http.Handler, cfg HTTPServerConfig) error {
	cfg = cfg.withDefaults()
	// Requests keep running through a graceful shutdown (that is the point of
	// draining), so their base context is cancelled only once the grace
	// period expires and shutdown turns forceful.
	reqCtx, cancelReqs := context.WithCancel(context.Background())
	defer cancelReqs()
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       cfg.ReadTimeout,
		WriteTimeout:      cfg.WriteTimeout,
		IdleTimeout:       idleTimeout,
		BaseContext:       func(net.Listener) context.Context { return reqCtx },
	}

	drained := make(chan error, 1)
	go func() {
		<-ctx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), cfg.ShutdownGrace)
		defer cancel()
		err := srv.Shutdown(shutCtx)
		cancelReqs() // abort whatever outlived the grace period
		drained <- err
	}()

	err := srv.Serve(ln)
	if !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// Serve returns as soon as Shutdown starts; wait for the drain of
	// in-flight requests to finish before reporting the server down.
	return <-drained
}
