// Command dpbpd serves sweeps over HTTP: the dpbp experiment harness
// behind a bounded queue, a pool of worker shards, and a two-tier run
// cache, so many clients can share one warm server (see internal/serve
// for the architecture and DESIGN.md §16 for the rationale).
//
// Usage:
//
//	dpbpd [-addr HOST:PORT] [-workers N] [-queue N]
//	      [-cache-entries N] [-cache-bytes N] [-dcache DIR]
//	      [-j N] [-run-timeout D] [-sweep-timeout D]
//
// The API is three endpoints: POST /api/v1/sweeps (a Submission body,
// answered with a streamed NDJSON event sequence ending in the final
// document, byte-identical to `dpbp -format json` for the same sweep),
// GET /healthz, and GET /metrics. A full queue answers 429 with
// Retry-After; -dcache makes warm entries survive restarts.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dpbp/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8344", "listen address")
	workers := flag.Int("workers", 0, "concurrent sweep shards (0 = default)")
	queue := flag.Int("queue", 0, "queued submissions beyond the in-flight ones (0 = default)")
	cacheEntries := flag.Int("cache-entries", 0, "in-memory run-cache entry bound (0 = default, negative = unbounded)")
	cacheBytes := flag.Int64("cache-bytes", 0, "in-memory run-cache byte bound (0 = none)")
	diskDir := flag.String("dcache", "", "content-addressed disk cache directory (empty = memory only)")
	jobs := flag.Int("j", 0, "per-sweep parallel benchmark runs (0 = GOMAXPROCS)")
	runTimeout := flag.Duration("run-timeout", 0, "default per-benchmark-run budget (0 = none)")
	sweepTimeout := flag.Duration("sweep-timeout", 0, "whole-submission budget (0 = none)")
	flag.Parse()

	cfg := serve.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheEntries: *cacheEntries,
		CacheBytes:   *cacheBytes,
		DiskDir:      *diskDir,
		Parallelism:  *jobs,
		RunTimeout:   *runTimeout,
		SweepTimeout: *sweepTimeout,
	}
	os.Exit(runServe(cfg, *addr))
}

// runServe listens and serves until SIGINT/SIGTERM.
func runServe(cfg serve.Config, addr string) int {
	s, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpbpd:", err)
		return 1
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpbpd:", err)
		return 1
	}
	fmt.Printf("dpbpd: listening on http://%s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hs := &http.Server{Handler: s}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "dpbpd: shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			fmt.Fprintln(os.Stderr, "dpbpd:", err)
		}
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "dpbpd:", err)
			if cerr := s.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "dpbpd:", cerr)
			}
			return 1
		}
	}
	if err := s.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "dpbpd:", err)
		return 1
	}
	return 0
}
