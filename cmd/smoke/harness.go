package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/capstore"
	"repro/internal/capture"
	"repro/internal/daemon"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// The harness state of one scenario run. Scenarios run one at a time
// on the goroutine that called run; fatalf must be called from it.
var (
	scenarioName string  // prefix of every line the harness prints
	binDir       string  // where the binaries under test live
	scratch      string  // the run's temp dir, removed on every exit path
	children     []*proc // every child started, killed on every exit path
)

// failure is the panic value fatalf raises; run recovers it after the
// cleanup has reaped the children and removed the scratch dir.
type failure string

// run executes one scenario against the binaries in dir. Whether it
// passes or fails, every child is killed and the scratch dir removed
// before run returns; a scenario failure comes back as the error.
func run(name, dir string, scenario func()) (err error) {
	scenarioName, binDir, children = name, dir, nil
	defer func() {
		for _, p := range children {
			p.kill()
		}
		children = nil
		if scratch != "" {
			os.RemoveAll(scratch) //nolint:errcheck
			scratch = ""
		}
		if r := recover(); r != nil {
			f, ok := r.(failure)
			if !ok {
				panic(r)
			}
			err = errors.New(string(f))
		}
	}()
	scratch, err = os.MkdirTemp("", "smoke-"+name+"-*")
	if err != nil {
		return err
	}
	scenario()
	return nil
}

// fatalf fails the scenario: the one exit path for every failed
// assertion, error, and timeout.
func fatalf(format string, args ...any) {
	panic(failure(fmt.Sprintf(format, args...)))
}

func check(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

// logf prints a progress line under the scenario's name.
func logf(format string, args ...any) {
	fmt.Printf("smoke %s: "+format+"\n", append([]any{scenarioName}, args...)...)
}

// bin is the path of the named binary under test.
func bin(name string) string { return filepath.Join(binDir, name) }

// proc is a child process whose stdout is captured (and echoed) so its
// listen banner and final lines can be parsed.
type proc struct {
	cmd    *exec.Cmd
	mu     sync.Mutex
	buf    bytes.Buffer
	doneCh chan error
}

// start launches a binary under test with captured stdout.
func start(name string, args ...string) *proc {
	cmd := exec.Command(bin(name), args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	check(err)
	check(cmd.Start())
	p := &proc{cmd: cmd, doneCh: make(chan error, 1)}
	children = append(children, p)
	go func() {
		buf := make([]byte, 4096)
		for {
			n, err := out.Read(buf)
			if n > 0 {
				p.mu.Lock()
				p.buf.Write(buf[:n])
				p.mu.Unlock()
				os.Stdout.Write(buf[:n]) //nolint:errcheck
			}
			if err != nil {
				break
			}
		}
		p.doneCh <- cmd.Wait()
	}()
	return p
}

// boot is start plus waiting for the daemon's listen banner.
func boot(name string, args ...string) *proc {
	p := start(name, args...)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := daemon.ListenAddr(p.output()); ok {
			return p
		}
		if time.Now().After(deadline) || p.exited() {
			fatalf("%s did not report a listen address:\n%s", name, p.output())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// url is the base URL of a booted daemon.
func (p *proc) url() string {
	addr, _ := daemon.ListenAddr(p.output())
	return "http://" + addr
}

func (p *proc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.buf.String()
}

func (p *proc) exited() bool {
	select {
	case err := <-p.doneCh:
		p.doneCh <- err
		return true
	default:
		return false
	}
}

// wait waits up to d for the child to exit on its own and returns its
// exit error; past d it kills the child and reports the timeout.
func (p *proc) wait(d time.Duration) error {
	select {
	case err := <-p.doneCh:
		p.doneCh <- err
		return err
	case <-time.After(d):
		p.kill()
		return fmt.Errorf("still running after %v", d)
	}
}

// stop sends SIGTERM and waits for the graceful drain.
func (p *proc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	return p.wait(10 * time.Second)
}

// kill SIGKILLs the child (no drain, no goodbye) and reaps it.
func (p *proc) kill() {
	if !p.exited() {
		p.cmd.Process.Kill() //nolint:errcheck
		<-p.doneCh
		p.doneCh <- nil
	}
}

func get(url string) string {
	resp, err := http.Get(url)
	check(err)
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	check(err)
	if resp.StatusCode != http.StatusOK {
		fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}
	return string(body)
}

// scrape fetches a text exposition and fails unless it is valid.
func scrape(url string) string {
	text := get(url)
	if err := obs.ValidateExposition(strings.NewReader(text)); err != nil {
		fatalf("scrape %s invalid: %v", url, err)
	}
	return text
}

// sample returns the value of one series — a metric name plus its
// label set exactly as exposed, e.g. `x_total{node="a"}` — from a text
// exposition; ok is false when the series has no sample.
func sample(text, series string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		if rest, found := strings.CutPrefix(line, series+" "); found {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v, err == nil
		}
	}
	return 0, false
}

// mustSample is sample that fails the scenario on a missing series.
func mustSample(text, series string) float64 {
	v, ok := sample(text, series)
	if !ok {
		fatalf("metric %s has no sample:\n%s", series, text)
	}
	return v
}

// ledger is fleetd's drain line.
type ledger struct {
	Submitted, Captures, Dead, Dropped, Reassigned int64
}

var ledgerRe = regexp.MustCompile(`drained — submitted=(\d+) captures=(\d+) dead=(\d+) dropped=(\d+) \(leases=\d+ reassigned=(\d+)`)

func parseLedger(out string) ledger {
	m := ledgerRe.FindStringSubmatch(out)
	if m == nil {
		fatalf("no ledger line in fleetd output:\n%s", out)
	}
	var v [5]int64
	for i := range v {
		v[i], _ = strconv.ParseInt(m[i+1], 10, 64)
	}
	return ledger{v[0], v[1], v[2], v[3], v[4]}
}

// segments reads a closed store's raw segment files in shard order.
func segments(dir string) [][]byte {
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	check(err)
	segs := make([][]byte, len(paths))
	for i, p := range paths {
		segs[i], err = os.ReadFile(p)
		check(err)
	}
	return segs
}

// logicalStream is one shard's logical record stream (packs plus
// tail), the bytes a never-compacted store keeps in its segment file.
func logicalStream(st *capstore.Store, shard int) []byte {
	var buf bytes.Buffer
	_, _, err := st.StreamShard(shard, 0, &buf)
	check(err)
	return buf.Bytes()
}

// ingestClient is a capstore client that rides out a capd restart.
func ingestClient(url string) *capstore.Client {
	cl := capstore.NewClient(url)
	cl.Retry = resilience.RetryPolicy{MaxAttempts: 8, BaseDelay: 10 * time.Millisecond,
		MaxDelay: 500 * time.Millisecond, Multiplier: 2}
	return cl
}

// push streams caps in order as fixed-size unordered batches.
func push(cl *capstore.Client, caps []*capture.Capture, batch int) {
	for at := 0; at < len(caps); at += batch {
		end := min(at+batch, len(caps))
		if _, err := cl.RecordBatch(caps[at:end]); err != nil {
			fatalf("ingest batch at %d: %v", at, err)
		}
	}
}
