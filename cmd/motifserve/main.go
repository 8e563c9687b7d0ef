// Command motifserve runs the long-running motif server: a JSON-over-
// HTTP front end for motif discovery, top-k, k-NN, similarity join and
// clustering, backed by a trajectory store that memoizes ground-distance
// grids and bound tables so repeated queries skip precomputation.
//
// Usage:
//
//	motifserve -addr :8080
//	motifserve -addr 127.0.0.1:0 -cache-bytes 1073741824 -workers 4
//	motifserve -max-trajectories 10000 -traj-ttl 1h -max-concurrent 8
//	motifserve -artifact-dir /var/lib/motifserve -snapshot-on-shutdown
//
// Endpoints (all JSON; see the README's "Serve mode" section):
//
//	POST /trajectories  {"points": [[lat,lng],...], "times": [unix...]}
//	POST /discover      {"id": "...", "xi": 100}
//	POST /discover/pairs, /topk, /knn, /join, /cluster
//	GET  /healthz, /stats, /metrics
//
// The listen line "motifserve listening on <host:port>" is printed once
// the socket is bound, so wrappers can pass port 0 and scrape the
// assigned port. SIGINT/SIGTERM drain in-flight requests for up to
// -shutdown-grace before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"trajmotif"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	cacheBytes := flag.Int64("cache-bytes", trajmotif.DefaultCacheBytes, "artifact cache budget in bytes (negative disables caching)")
	workers := flag.Int("workers", 0, "default within-search workers for requests that don't specify one; 0 = GOMAXPROCS")
	maxBody := flag.Int64("max-body-bytes", 0, "request body cap in bytes; 0 = 64 MiB default, negative disables the cap")
	maxTraj := flag.Int("max-trajectories", 0, "registry capacity; least-recently-used trajectories are evicted beyond it (0 = unbounded)")
	trajTTL := flag.Duration("traj-ttl", 0, "idle trajectory lifetime; expired entries are evicted on the next registry access (0 = no expiry)")
	maxConc := flag.Int("max-concurrent", 0, "global cap on in-flight search workers; 0 = GOMAXPROCS, negative disables admission control")
	maxQueued := flag.Int("max-queued", 0, "search requests allowed to wait for admission; 0 = 4x capacity (floor 16), negative disables queueing")
	queueWait := flag.Duration("queue-wait", 0, "longest a queued search waits before 429; 0 = 5s default, negative rejects immediately when no slot is free")
	artifactDir := flag.String("artifact-dir", "", "directory for the persistent artifact tier; evicted grids spill to disk and warm restarts promote them back (empty disables)")
	snapshotOnShutdown := flag.Bool("snapshot-on-shutdown", false, "write the trajectory registry to <artifact-dir>/registry.snap on graceful shutdown and restore it at boot (requires -artifact-dir)")
	readHeaderTimeout := flag.Duration("read-header-timeout", 10*time.Second, "http.Server ReadHeaderTimeout")
	readTimeout := flag.Duration("read-timeout", 2*time.Minute, "http.Server ReadTimeout (covers large bulk uploads)")
	writeTimeout := flag.Duration("write-timeout", 5*time.Minute, "http.Server WriteTimeout (covers cold full-corpus joins)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout for keep-alive connections")
	shutdownGrace := flag.Duration("shutdown-grace", 15*time.Second, "how long SIGINT/SIGTERM waits for in-flight requests before forcing exit")
	flag.Parse()

	// Fail fast on an unusable artifact directory: the store itself
	// degrades gracefully (counting diskErrors), but an operator who
	// asked for persistence wants a hard error at boot, not silent
	// RAM-only serving.
	if *artifactDir != "" {
		if err := os.MkdirAll(*artifactDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "motifserve: -artifact-dir: %v\n", err)
			os.Exit(1)
		}
		probe, err := os.CreateTemp(*artifactDir, ".probe-*")
		if err != nil {
			fmt.Fprintf(os.Stderr, "motifserve: -artifact-dir not writable: %v\n", err)
			os.Exit(1)
		}
		probe.Close()
		os.Remove(probe.Name())
	}
	if *snapshotOnShutdown && *artifactDir == "" {
		fmt.Fprintln(os.Stderr, "motifserve: -snapshot-on-shutdown requires -artifact-dir")
		os.Exit(1)
	}

	st := trajmotif.NewStore(&trajmotif.StoreOptions{
		CacheBytes:      *cacheBytes,
		MaxTrajectories: *maxTraj,
		TrajectoryTTL:   *trajTTL,
		ArtifactDir:     *artifactDir,
	})

	snapPath := ""
	if *artifactDir != "" {
		snapPath = filepath.Join(*artifactDir, "registry.snap")
		if n, err := st.Restore(snapPath); err != nil {
			fmt.Fprintf(os.Stderr, "motifserve: restore %s: %v\n", snapPath, err)
			os.Exit(1)
		} else if n > 0 {
			fmt.Printf("motifserve restored %d trajectories from %s\n", n, snapPath)
		}
	}

	srv := trajmotif.NewServer(st, &trajmotif.ServerOptions{
		Workers:               *workers,
		MaxBodyBytes:          *maxBody,
		MaxConcurrentSearches: *maxConc,
		MaxQueuedSearches:     *maxQueued,
		QueueWait:             *queueWait,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "motifserve: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("motifserve listening on %s\n", ln.Addr())

	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "motifserve: %v\n", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills immediately
		fmt.Println("motifserve draining")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(os.Stderr, "motifserve: shutdown: %v\n", err)
			os.Exit(1)
		}
		if *snapshotOnShutdown {
			if n, err := st.Snapshot(snapPath); err != nil {
				fmt.Fprintf(os.Stderr, "motifserve: snapshot %s: %v\n", snapPath, err)
				os.Exit(1)
			} else {
				fmt.Printf("motifserve snapshotted %d trajectories to %s\n", n, snapPath)
			}
		}
		fmt.Println("motifserve stopped")
	}
}
