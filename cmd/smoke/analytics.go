package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"repro/internal/analytics"
	"repro/internal/capstore"
	"repro/internal/capture"
	"repro/internal/cmps"
	"repro/internal/simtime"
)

const (
	analyticsShards = 4
	analyticsTotal  = 480
	analyticsBatch  = 16
)

// analyticsCapture fabricates capture i: a few dozen domains cycling
// through the studied CMPs across the window, with CMP-less pages and
// failed captures mixed in so the folds' skip paths run too.
func analyticsCapture(i int) *capture.Capture {
	domain := fmt.Sprintf("site%d.example", i%29)
	c := &capture.Capture{
		SeedURL:     fmt.Sprintf("https://%s/p/%d", domain, i),
		FinalURL:    "https://" + domain + "/",
		FinalDomain: domain,
		Day:         simtime.Day((i * 7) % simtime.NumDays),
		Vantage:     capture.EUCloud,
		Config:      "default",
		Status:      200,
	}
	if i%3 == 0 {
		c.Vantage = capture.USCloud
	}
	switch i % 7 {
	case 0: // CMP-less page
	case 1:
		c.Failed = true
		c.Error = "timeout"
		c.Status = 0
	default:
		id := cmps.ID(1 + i%int(cmps.Count))
		c.Requests = []capture.Request{{Host: id.Hostname(), Path: "/cmp.js", Status: 200}}
	}
	return c
}

var resumeRe = regexp.MustCompile(`resumed from checkpoint at cursor (\d+)`)

// analyticsScenario exercises the incremental-analytics path with real
// processes: a capd ingest node, an analyzed follower with a short
// checkpoint interval, a SIGKILL mid-stream, a restart that must
// resume from the checkpoint (not refold the whole store), and a final
// byte-for-byte comparison of every served view against `analyze
// -store` batch mode over the same store.
func analyticsScenario() {
	storeDir := filepath.Join(scratch, "store")
	ckptDir := filepath.Join(scratch, "checkpoints")

	caps := make([]*capture.Capture, analyticsTotal)
	for i := range caps {
		caps[i] = analyticsCapture(i)
	}

	// Boot the ingest node and the follower against it.
	capd := boot("capd", "-store", storeDir, "-init-shards", strconv.Itoa(analyticsShards),
		"-ingest", "-metrics", "-addr", "127.0.0.1:0")
	capdURL := capd.url()
	cl := ingestClient(capdURL)

	analyzedArgs := []string{"-server", capdURL, "-checkpoint", ckptDir,
		"-checkpoint-every", "64", "-poll", "10ms", "-metrics", "-addr", "127.0.0.1:0"}
	analyzed := boot("analyzed", analyzedArgs...)
	anURL := analyzed.url()

	// Phase 1: stream ~40% and wait for the follower to catch up and
	// cut at least one durable checkpoint.
	phase1 := analyticsTotal * 2 / 5
	push(cl, caps[:phase1], analyticsBatch)
	waitHealth(anURL, func(h analytics.AnalyzedHealth) bool {
		return h.Cursor == int64(phase1) && h.CheckpointCursor > 0
	}, "cursor %d with a checkpoint", phase1)

	// Phase 2: SIGKILL analyzed mid-stream — no graceful checkpoint —
	// and keep ingesting while it is down.
	ckptBefore := health(anURL).CheckpointCursor
	analyzed.kill()
	logf("SIGKILLed analyzed at cursor %d (checkpoint %d)", phase1, ckptBefore)
	phase2 := analyticsTotal * 7 / 10
	push(cl, caps[phase1:phase2], analyticsBatch)

	// Phase 3: restart on the same checkpoint directory. The banner
	// must report a resume, and the process must fold only the suffix
	// past its checkpoint — never the whole store again.
	analyzed = boot("analyzed", analyzedArgs...)
	anURL = analyzed.url()
	m := resumeRe.FindStringSubmatch(analyzed.output())
	if m == nil {
		fatalf("restarted analyzed did not resume from a checkpoint:\n%s", analyzed.output())
	}
	resumed, err := strconv.ParseInt(m[1], 10, 64)
	check(err)
	if resumed <= 0 || resumed > int64(phase1) {
		fatalf("resumed cursor %d out of range (0, %d]", resumed, phase1)
	}

	// Phase 4: stream the rest and wait for full catch-up.
	push(cl, caps[phase2:], analyticsBatch)
	waitHealth(anURL, func(h analytics.AnalyzedHealth) bool {
		return h.Cursor == int64(analyticsTotal) && h.Lag == 0
	}, "cursor %d with zero lag", analyticsTotal)

	// The restarted process folded exactly the post-checkpoint suffix.
	folded := mustSample(get(anURL+"/metrics"), "analytics_fold_records_total")
	if want := float64(analyticsTotal) - float64(resumed); folded != want {
		fatalf("restarted analyzed folded %.0f records, want %.0f (resumed at %d of %d — full replay?)",
			folded, want, resumed, analyticsTotal)
	}

	// capd's /healthz exposes the ingest commit cursor, and it agrees
	// with what analyzed applied.
	var capdHealth capstore.Health
	check(json.Unmarshal([]byte(get(capdURL+"/healthz")), &capdHealth))
	if capdHealth.Ingest == nil || capdHealth.Ingest.Accepted != int64(analyticsTotal) {
		fatalf("capd /healthz ingest = %+v, want %d accepted", capdHealth.Ingest, analyticsTotal)
	}

	// Pull every view (twice, so the snapshot cache also serves) and
	// validate the telemetry surface.
	views := make(map[string][]byte)
	for _, name := range analytics.ViewNames() {
		get(anURL + "/view/" + name)
		views[name] = bytes.TrimSuffix([]byte(get(anURL+"/view/"+name)), []byte("\n"))
		if lines := strings.Count(get(anURL+"/series/"+name), "\n"); lines == 0 {
			fatalf("/series/%s served no points", name)
		}
	}
	text := scrape(anURL + "/metrics")
	for _, want := range []string{"analytics_fold_records_total", "analytics_cursor",
		"analytics_lag_records", "analytics_checkpoints_total", "analytics_queries_total",
		"analytics_view_update_seconds"} {
		if !strings.Contains(text, want) {
			fatalf("analyzed /metrics missing %q", want)
		}
	}

	// Shut both down gracefully; batch mode needs the store unlocked.
	for _, p := range []*proc{analyzed, capd} {
		if err := p.stop(); err != nil {
			fatalf("shutdown: %v", err)
		}
	}

	// Headline: `analyze -store` over the very store capd wrote must
	// reproduce every served view byte for byte.
	out := filepath.Join(scratch, "views.json")
	cmd := exec.Command(bin("analyze"), "-store", storeDir, "-views-out", out)
	cmd.Stderr = os.Stderr
	check(cmd.Run())
	var envelope struct {
		Cursor int64                      `json:"cursor"`
		Views  map[string]json.RawMessage `json:"views"`
	}
	b, err := os.ReadFile(out)
	check(err)
	check(json.Unmarshal(b, &envelope))
	if envelope.Cursor != int64(analyticsTotal) {
		fatalf("batch cursor %d, want %d", envelope.Cursor, analyticsTotal)
	}
	for name, served := range views {
		if !bytes.Equal(served, envelope.Views[name]) {
			fatalf("view %s: analyzed served different bytes than batch analyze\nserved: %.200s\nbatch:  %.200s",
				name, served, envelope.Views[name])
		}
	}
	logf("ok — %d records, %d views byte-identical to batch after SIGKILL + checkpoint resume at cursor %d",
		analyticsTotal, len(views), resumed)
}

func health(url string) analytics.AnalyzedHealth {
	var h analytics.AnalyzedHealth
	check(json.Unmarshal([]byte(get(url+"/healthz")), &h))
	return h
}

func waitHealth(url string, ok func(analytics.AnalyzedHealth) bool, format string, args ...any) {
	deadline := time.Now().Add(20 * time.Second)
	for {
		h := health(url)
		if ok(h) {
			return
		}
		if time.Now().After(deadline) {
			fatalf("timed out waiting for "+format+" (health %+v)", append(args, h)...)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
