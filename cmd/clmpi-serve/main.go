// Command clmpi-serve runs the simulation-as-a-service daemon: an HTTP/JSON
// server that accepts (system, workload, parameter-grid) sweep jobs, shards
// their points across a bounded worker pool, streams per-point progress, and
// content-addresses finished results so a repeated what-if question is a
// cache hit instead of a re-simulation.
//
// Usage:
//
//	clmpi-serve -addr 127.0.0.1:8177
//	curl -s -X POST localhost:8177/v1/jobs?wait=1 -d '{"system":"cichlid"}'
//	clmpi-serve -addr :8177 -workers 8 -cache-entries 4096 -cache-dir /var/cache/clmpi
//	clmpi-serve -systems lab.json,dgx.json   # register spec files as daemon-local names
//
// See the README's "Running the sweep server" walkthrough.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8177", "listen address")
	workers := flag.Int("workers", 0, "worker pool width shared by all jobs (0 = all host cores)")
	cacheEntries := flag.Int("cache-entries", 1024, "in-memory result cache capacity (entries)")
	cacheDir := flag.String("cache-dir", "", "persist results to this directory (survives eviction and restarts)")
	parallelWorld := flag.Int("parallel-world", 0, "default partitioned-engine width for matchscale jobs that do not set parallel_world (0 = serial engine); a partitioned point claims that many worker slots")
	systemsFlag := flag.String("systems", "", "comma-separated system spec files to register as daemon-local names (jobs may then name them in \"system\"; results are still content-addressed by the spec, not the name)")
	obsReport := flag.Bool("obs-report", false, "print the host-time attribution report (stall/simulate/advert/merge per shard, pooled over all partitioned jobs) to stderr at shutdown")
	flag.Parse()

	tool := cli.New("clmpi-serve")
	var registered map[string]cluster.System
	if *systemsFlag != "" {
		registered = make(map[string]cluster.System)
		for _, path := range strings.Split(*systemsFlag, ",") {
			sys, err := cluster.LoadFile(strings.TrimSpace(path))
			tool.BadFlag(err)
			registered[strings.ToLower(sys.Name)] = sys
		}
	}

	mgr, err := serve.NewManager(serve.Options{
		Workers:       *workers,
		CacheEntries:  *cacheEntries,
		CacheDir:      *cacheDir,
		ParallelWorld: *parallelWorld,
		Systems:       registered,
	})
	tool.Check(err)
	// A client that trickles its headers or parks an idle keep-alive
	// connection must not hold a connection forever. There is deliberately
	// no WriteTimeout: POST /v1/jobs?wait=1 holds its response until the
	// job finishes, however long the sweep takes.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           serve.NewServer(mgr),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// SIGQUIT dumps the flight recorder without stopping the daemon — the
	// same snapshot GET /debug/flightz serves, for when the HTTP surface is
	// wedged or unreachable.
	quitc := make(chan os.Signal, 1)
	signal.Notify(quitc, syscall.SIGQUIT)
	go func() {
		for range quitc {
			mgr.FlightDump(os.Stderr)
		}
	}()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "clmpi-serve: listening on %s (workers=%d)\n", *addr, mgr.Workers())
	if len(registered) > 0 {
		names := make([]string, 0, len(registered))
		for name := range registered {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "clmpi-serve: registered systems: %s\n", strings.Join(names, ", "))
	}

	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			tool.Check(err)
		}
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "clmpi-serve: shutting down")
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			tool.Check(fmt.Errorf("shutdown: %w", err))
		}
	}
	if *obsReport {
		fmt.Fprintln(os.Stderr, "clmpi-serve: host-time attribution at shutdown:")
		mgr.ObsReport(os.Stderr)
	}
}
