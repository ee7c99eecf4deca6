// Command analyzed serves the paper's analyses as incrementally
// updated materialized views over a live capture store. It follows a
// capd/capring node (or a local store directory), folds every
// committed record through the analytics engine, checkpoints view
// state to disk, and serves the views over HTTP:
//
//	GET /views          → view catalog with the current commit cursor
//	GET /view/NAME      → one view's JSON snapshot (adoption, coverage,
//	                      marketshare, gvl)
//	GET /series/NAME    → the view's per-point series as NDJSON
//	GET /healthz        → cursor, per-shard cursors, lag, checkpoint
//
// Usage:
//
//	analyzed (-server URL | -store DIR) [-addr HOST:PORT]
//	         [-checkpoint DIR] [-checkpoint-every N]
//	         [-poll D] [-batch N] [-max-inflight N] [-timeout D]
//	         [-metrics]
//
// On startup analyzed resumes from the newest valid checkpoint (torn
// checkpoint files are skipped) and streams only the store suffix past
// the checkpointed cursor; with no checkpoint it bootstraps from the
// store's full contents. Views are defined at every ingest commit
// cursor and agree byte-for-byte with batch `analyze -store` run on a
// store truncated to the same cursor.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/analytics"
	"repro/internal/capstore"
	"repro/internal/daemon"
	"repro/internal/obs"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8402", "listen address (use 127.0.0.1:0 for an ephemeral port)")
		server    = flag.String("server", "", "capd/capring base URL to follow (e.g. http://127.0.0.1:8400)")
		storeDir  = flag.String("store", "", "local capture store directory to follow instead of -server")
		ckptDir   = flag.String("checkpoint", "", "directory for durable view-state checkpoints (empty = none)")
		ckptEvery = flag.Int64("checkpoint-every", 4096, "records between checkpoints")
		poll      = flag.Duration("poll", 250*time.Millisecond, "source poll interval")
		batchSize = flag.Int("batch", 256, "records folded per engine apply")
		maxInFly  = flag.Int("max-inflight", 64, "max concurrent view queries before shedding with 429")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-query timeout")
		metrics   = flag.Bool("metrics", false, "serve /metrics, /metrics.json and /debug endpoints")
	)
	flag.Parse()
	if (*server == "") == (*storeDir == "") {
		fmt.Fprintln(os.Stderr, "analyzed: exactly one of -server or -store is required")
		flag.Usage()
		os.Exit(2)
	}

	var reg *obs.Registry
	var tracer *obs.Tracer
	if *metrics {
		reg = obs.NewRegistry()
		// Service is the role, never a per-process identity, so span
		// exports stay byte-identical across node counts.
		tracer = obs.NewTracer(obs.TracerConfig{Service: "analyzed"})
		tracer.RegisterMetrics(reg)
	}

	engine := analytics.NewEngine(analytics.Config{Registry: reg, Tracer: tracer})

	var source analytics.Source
	if *server != "" {
		source = analytics.ClientSource{Client: capstore.NewClient(*server)}
		fmt.Printf("analyzed: following %s\n", *server)
	} else {
		store, err := capstore.Open(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "analyzed:", err)
			os.Exit(1)
		}
		defer store.Close()
		source = analytics.StoreSource{Store: store}
		fmt.Printf("analyzed: following local store %s\n", *storeDir)
	}

	follower := analytics.NewFollower(analytics.FollowerConfig{
		Source:          source,
		Engine:          engine,
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvery,
		PollInterval:    *poll,
		BatchSize:       *batchSize,
	})
	resumed, err := follower.Resume()
	if err != nil {
		fmt.Fprintln(os.Stderr, "analyzed: resume:", err)
		os.Exit(1)
	}
	if resumed >= 0 {
		fmt.Printf("analyzed: resumed from checkpoint at cursor %d\n", resumed)
	} else if *ckptDir != "" {
		fmt.Printf("analyzed: cold start (no checkpoint in %s), bootstrapping from store\n", *ckptDir)
	}

	d, err := daemon.Listen("analyzed", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "analyzed:", err)
		os.Exit(1)
	}
	d.Announce("analyzed: serving %d views", len(analytics.ViewNames()))
	fmt.Printf("analyzed: endpoints /views /view/NAME /series/NAME /healthz; ≤%d in flight, %v/query; Ctrl-C shuts down gracefully.\n",
		*maxInFly, *timeout)

	ctx, stopFollow := context.WithCancel(context.Background())
	followDone := make(chan struct{})
	go func() {
		defer close(followDone)
		follower.Run(ctx)
	}()
	handler := analytics.NewHandler(analytics.HandlerConfig{
		Engine:         engine,
		Follower:       follower,
		MaxInFlight:    *maxInFly,
		RequestTimeout: *timeout,
		Tracer:         tracer,
	}, reg)
	err = d.Serve(handler, daemon.Options{
		Registry: reg,
		Tracer:   tracer,
		// The follower writes a final checkpoint on its way out, so a
		// clean restart resumes at exactly this cursor.
		Drain: func() { stopFollow(); <-followDone },
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "analyzed:", err)
		os.Exit(1)
	}
	fmt.Printf("analyzed: drained and stopped at cursor %d (lag %d)\n",
		engine.Cursor(), follower.Lag())
}
