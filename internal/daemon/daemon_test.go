package daemon

import (
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// serve starts d.Serve in the background and returns its result
// channel.
func serve(d *Daemon, h http.Handler, opt Options) <-chan error {
	errc := make(chan error, 1)
	go func() { errc <- d.Serve(h, opt) }()
	return errc
}

func listen(t *testing.T) *Daemon {
	t.Helper()
	d, err := Listen("testd", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestAnnounceRoundTripsThroughListenAddr(t *testing.T) {
	d := listen(t)
	defer d.stop()
	defer d.ln.Close()

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	d.Announce("testd: serving %d things", 3)
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	want := "testd: serving 3 things on " + d.Addr().String() + "\n"
	if string(out) != want {
		t.Fatalf("banner = %q, want %q", out, want)
	}
	addr, ok := ListenAddr("testd: compactor on (every 1s)\n" + string(out) + "testd: telemetry on /metrics\n")
	if !ok || addr != d.Addr().String() {
		t.Fatalf("ListenAddr = %q, %v; want %q", addr, ok, d.Addr())
	}
}

func TestListenAddrNeedsACompleteBanner(t *testing.T) {
	for _, out := range []string{
		"",
		"capd: serving 4 captures on 127.0.0.1:86", // port still being written
		"capd: telemetry on /metrics, /metrics.json, /debug/trace, /debug/pprof/\n",
		"capd: compactor on (tail ≥ 512 bytes, age 0s, every 2ms, pace 0 B/s)\n",
	} {
		if addr, ok := ListenAddr(out); ok {
			t.Errorf("ListenAddr(%q) = %q, want no match", out, addr)
		}
	}
	addr, ok := ListenAddr("Serving the synthetic web (10 domains) on [::1]:8080\n")
	if !ok || addr != "[::1]:8080" {
		t.Errorf("IPv6 banner: got %q, %v", addr, ok)
	}
}

// shedding answers every request the way a saturated limiter does.
var shedding = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Retry-After", "1")
	http.Error(w, "shedding", http.StatusTooManyRequests)
})

var debugPaths = []string{"/metrics", "/metrics.json", "/debug/trace", "/debug/pprof/"}

func TestRegistryMountsDebugRoutesOutsideTheHandler(t *testing.T) {
	reg := obs.NewRegistry()
	obs.NewCounter(reg, "testd_requests_total", "Requests.").Inc()
	tracer := obs.NewTracer(obs.TracerConfig{Service: "testd"})
	tracer.Start("boot").End()

	d := listen(t)
	base := "http://" + d.Addr().String()
	done := make(chan struct{})
	errc := serve(d, shedding, Options{Registry: reg, Tracer: tracer, Done: done})

	for _, p := range debugPaths {
		if code, body := get(t, base+p); code != http.StatusOK {
			t.Errorf("GET %s while shedding: %d %s", p, code, body)
		}
	}
	if _, body := get(t, base+"/metrics"); !strings.Contains(body, "testd_requests_total 1") {
		t.Errorf("/metrics missing the registry's counter:\n%s", body)
	}
	if _, body := get(t, base+"/debug/trace"); !strings.Contains(body, `"name":"boot"`) {
		t.Errorf("/debug/trace missing the tracer's span:\n%s", body)
	}
	if code, _ := get(t, base+"/query"); code != http.StatusTooManyRequests {
		t.Errorf("GET /query = %d, want the handler's 429", code)
	}
	close(done)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

func TestNoRegistryMountsNoDebugRoutes(t *testing.T) {
	d := listen(t)
	base := "http://" + d.Addr().String()
	done := make(chan struct{})
	errc := serve(d, shedding, Options{Done: done})
	for _, p := range debugPaths {
		if code, _ := get(t, base+p); code != http.StatusTooManyRequests {
			t.Errorf("GET %s without a registry = %d, want the handler's 429", p, code)
		}
	}
	close(done)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

func TestDoneLetsInFlightRequestsFinish(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "finished") //nolint:errcheck
	})

	d := listen(t)
	done := make(chan struct{})
	drained := make(chan struct{})
	errc := serve(d, slow, Options{Done: done, Drain: func() { close(drained) }})

	type result struct {
		code int
		body string
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + d.Addr().String() + "/slow")
		if err != nil {
			resc <- result{body: err.Error()}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		resc <- result{resp.StatusCode, string(body)}
	}()
	<-entered
	close(done)
	<-drained

	select {
	case err := <-errc:
		t.Fatalf("Serve returned (%v) with a request still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if res := <-resc; res.code != http.StatusOK || res.body != "finished" {
		t.Fatalf("in-flight request got %d %q, want 200 \"finished\"", res.code, res.body)
	}
	if err := <-errc; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}
