// Package daemon is the serve skeleton every long-running binary in
// cmd/ shares: it binds the listener, prints the one listen-address
// banner format the smoke harness parses, mounts the obs debug surface
// in front of the daemon's handler (outside any limiter the handler
// carries), applies the shared server timeouts, and drains on
// SIGINT/SIGTERM or a caller's done channel.
//
// What stays with each daemon is what differs between them: flags,
// handlers, and the drain epilogue (final stats lines, checkpoints,
// ledger checks), which runs after Serve returns.
package daemon

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"regexp"
	"syscall"
	"time"

	"repro/internal/obs"
)

// Shared server timeouts. The header and idle timeouts are the
// slow-loris protection: a client must finish its headers promptly and
// keep-alive connections cannot idle forever. There is no write
// timeout because /query-style endpoints legitimately stream for as
// long as the per-request context allows. shutdownTimeout bounds the
// drain.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 60 * time.Second
	shutdownTimeout   = 5 * time.Second
)

// Daemon is one bound listener awaiting Serve.
type Daemon struct {
	name string
	ln   net.Listener
	sig  context.Context // done at SIGINT/SIGTERM
	stop context.CancelFunc
}

// Listen binds addr (host:port; port 0 picks an ephemeral one) for the
// daemon called name, the prefix of the lines Serve prints. From here
// on SIGINT and SIGTERM no longer kill the process; they make Serve
// drain, even if they arrive before it is called.
func Listen(name, addr string) (*Daemon, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	sig, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	return &Daemon{name: name, ln: ln, sig: sig, stop: stop}, nil
}

// Addr is the bound address.
func (d *Daemon) Addr() net.Addr { return d.ln.Addr() }

// Announce prints the listen banner: the formatted message followed by
// " on ADDR" and a newline. Every daemon prints exactly one; ListenAddr
// finds the address in it.
func (d *Daemon) Announce(format string, args ...any) {
	fmt.Printf(format+" on %s\n", append(args, d.ln.Addr())...)
}

var bannerRe = regexp.MustCompile(` on (\S+:\d+)\n`)

// ListenAddr returns the address from the first complete listen banner
// in a daemon's stdout, or false if none has been printed yet.
func ListenAddr(stdout string) (string, bool) {
	m := bannerRe.FindStringSubmatch(stdout)
	if m == nil {
		return "", false
	}
	return m[1], true
}

// Options are the parts of the serve path a daemon may set.
type Options struct {
	// Registry, when non-nil, mounts /metrics, /metrics.json,
	// /debug/trace and /debug/pprof/ (obs.Handler over Registry and
	// Tracer) in front of the handler, so scrapes and profiles keep
	// working while the handler sheds load.
	Registry *obs.Registry
	Tracer   *obs.Tracer
	// Done, when non-nil, drains the server once closed, as a signal
	// does.
	Done <-chan struct{}
	// Drain, when non-nil, runs after the stop trigger and before the
	// server shuts down: stop background loops, abort work in flight.
	Drain func()
}

// withDebug returns h with the debug routes mounted in front of it
// when reg is non-nil, and h itself otherwise.
func withDebug(h http.Handler, reg *obs.Registry, tr *obs.Tracer) http.Handler {
	if reg == nil {
		return h
	}
	debug := obs.Handler(reg, tr)
	mux := http.NewServeMux()
	mux.Handle("/metrics", debug)
	mux.Handle("/metrics.json", debug)
	mux.Handle("/debug/", debug)
	mux.Handle("/", h)
	return mux
}

// Serve serves h until SIGINT/SIGTERM or opt.Done, then runs opt.Drain
// and shuts the server down, letting in-flight requests finish for up
// to shutdownTimeout. It returns nil after a clean drain; the caller
// prints its own final lines. An error means the listener failed or
// the drain timed out.
func (d *Daemon) Serve(h http.Handler, opt Options) error {
	if opt.Registry != nil {
		fmt.Printf("%s: telemetry on /metrics, /metrics.json, /debug/trace, /debug/pprof/\n", d.name)
	}
	srv := &http.Server{
		Handler:           withDebug(h, opt.Registry, opt.Tracer),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	defer d.stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(d.ln) }()
	select {
	case err := <-errc:
		return err
	case <-d.sig.Done():
	case <-opt.Done:
	}
	if opt.Drain != nil {
		opt.Drain()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}
