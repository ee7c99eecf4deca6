package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// opSample is one open-loop operation. Both figures count from the
// operation's due time, not from when a sender got to it: a stall
// delays every operation queued behind it, and that wait belongs to
// the system.
type opSample struct {
	I       int64         // operation index
	Late    time.Duration // send start minus due time (generator lateness)
	Latency time.Duration // completion minus due time
	Err     error
}

// openLoop issues operation i at start + i·interval from a fixed set
// of senders, whatever the system's pace. When every sender is busy,
// due operations queue and run late; they are never skipped, so a
// generator that falls behind shows as lateness instead of vanishing
// load.
type openLoop struct {
	start    time.Time
	interval time.Duration
	next     atomic.Int64
}

func newOpenLoop(start time.Time, ratePerSec float64) *openLoop {
	return &openLoop{start: start, interval: time.Duration(float64(time.Second) / ratePerSec)}
}

// due is operation i's scheduled send time.
func (o *openLoop) due(i int64) time.Time { return o.start.Add(time.Duration(i) * o.interval) }

// run drives op from senders goroutines until the next operation would
// be due at or after end (or ctx ends), and returns every operation's
// sample in issue order.
func (o *openLoop) run(ctx context.Context, senders int, end time.Time, op func(i int64) error) []opSample {
	var (
		mu  sync.Mutex
		out []opSample
		wg  sync.WaitGroup
	)
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := o.next.Add(1) - 1
				due := o.due(i)
				if !due.Before(end) {
					return
				}
				if wait := time.Until(due); wait > 0 {
					t := time.NewTimer(wait)
					select {
					case <-ctx.Done():
						t.Stop()
						return
					case <-t.C:
					}
				}
				sent := time.Now()
				err := op(i)
				done := time.Now()
				mu.Lock()
				out = append(out, opSample{I: i, Late: sent.Sub(due), Latency: done.Sub(due), Err: err})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(out, func(a, b int) bool { return out[a].I < out[b].I })
	return out
}
