// Package daemon holds what sigserverd and sigrouterd share around
// their handlers: the one serve loop, with its header limits, pprof
// listener and shutdown drain, and the audit that keeps each daemon's
// flags to those something sets.
package daemon

import (
	"context"
	"errors"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on http.DefaultServeMux, served on debugAddr
	"os/signal"
	"syscall"
	"time"
)

// Serve listens on addr and serves h until SIGINT or SIGTERM arrives,
// ctx ends or serving fails; then it gives in-flight requests 10 s to
// finish. started runs once h is being served, with the base
// URL it answers on. A non-empty debugAddr serves http.DefaultServeMux
// — the net/http/pprof routes — on a listener of its own.
//
// Serve returns the serving or shutdown error, or the cause ctx was
// cancelled with (context.WithCancelCause); a signal, or a cancel
// without a cause, returns nil.
func Serve(ctx context.Context, addr, debugAddr string, h http.Handler, logger *slog.Logger, started func(base string)) error {
	sigctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if debugAddr != "" {
		dln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			ln.Close()
			return err
		}
		defer dln.Close()
		go func() { _ = http.Serve(dln, nil) }()
		logger.Info("pprof debug server on http://" + dln.Addr().String() + "/debug/pprof/")
	}
	hs := &http.Server{
		Handler: h,
		// Slowloris hardening: a client must finish its headers
		// promptly and cannot send unbounded ones. Body size is
		// bounded per handler via http.MaxBytesReader.
		ReadHeaderTimeout: 10 * time.Second,
		MaxHeaderBytes:    1 << 20,
	}
	errc := make(chan error, 1)
	go func() {
		if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	started("http://" + ln.Addr().String())

	select {
	case <-sigctx.Done():
		logger.Info("signal received, shutting down")
	case <-ctx.Done():
		if cause := context.Cause(ctx); cause != ctx.Err() {
			err = cause
		}
	case err = <-errc:
	}
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := hs.Shutdown(sctx); serr != nil && err == nil {
		err = serr
	}
	return err
}
