// Command nptsn-serve runs the NPTSN planner as a long-lived HTTP service:
// a bounded job queue in front of a pool of independent Planners, with live
// per-epoch progress, a problem-fingerprint plan cache, optional
// independent certification of every winning plan, and atomic JSON
// persistence so finished jobs survive a restart.
//
//	nptsn-serve -addr localhost:8080 -workers 2 -data-dir /var/lib/nptsn
//
//	curl -s -X POST localhost:8080/v1/jobs?certify=1 -d @job.json
//	curl -s localhost:8080/v1/jobs/<id>
//	curl -s localhost:8080/v1/jobs/<id>/result
//
// SIGINT/SIGTERM drains gracefully: submissions are rejected with 503,
// queued jobs are cancelled, and running jobs get -drain-timeout to finish
// (after which they are interrupted and their best-so-far plan persisted).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/obsv"
	"repro/internal/serialize"
	"repro/internal/service"
	"repro/internal/zoo"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nptsn-serve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("nptsn-serve", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", "localhost:8080", "HTTP listen address (use port 0 for an ephemeral port)")
		addrFile     = fs.String("addr-file", "", "write the bound address to this file once listening (for scripts using port 0)")
		workers      = fs.Int("workers", 1, "planning jobs executed concurrently")
		queueSize    = fs.Int("queue", 16, "waiting-queue capacity; submissions beyond it get HTTP 429")
		dataDir      = fs.String("data-dir", "", "persist finished jobs here and re-serve them after a restart (empty = memory only)")
		jobTimeout   = fs.Duration("job-timeout", 0, "per-job planning deadline unless the request sets its own (0 = none)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long running jobs may finish after SIGTERM before being interrupted")
		eventsPath   = fs.String("events", "", "append JSON-lines job lifecycle events to this file")
		httpTimeout  = fs.Duration("http-timeout", time.Minute, "HTTP read timeout per request; a stalled or malicious client cannot hold a connection open past it (0 = none)")
		stuckTimeout = fs.Duration("stuck-timeout", 0, "fail running jobs whose per-epoch progress heartbeat goes quiet this long (0 = no watchdog)")
		maxAttempts  = fs.Int("max-attempts", 3, "restarts that may re-queue the same journaled job before it is abandoned")
		verdictCache = fs.Int("verdict-cache", 0, "failure-analysis verdicts shared across jobs so delta re-plans reuse the base's work (0 = default 65536, negative = disabled)")
		faultSpec    = fs.String("fault", "", "fault-injection schedule for chaos drills, e.g. 'fs.write:enospc:p=0.1;service.plan:panic:calls=2' (empty = off)")
		faultSeed    = fs.Int64("fault-seed", 1, "seed of the -fault schedule; the same seed replays the same fault decisions")
		fleetURL     = fs.String("fleet", "", "register with the nptsn-fleet coordinator at this base URL and heartbeat until shutdown (empty = standalone)")
		fleetID      = fs.String("fleet-id", "", "stable replica identity on the fleet ring (default: the advertised address); reuse it across restarts to keep this replica's keys")
		fleetAdv     = fs.String("fleet-advertise", "", "base URL the coordinator reaches this replica at (default: http://<bound address>)")
		zooDir       = fs.String("zoo", "", "policy zoo directory (from nptsn-pretrain); arms the inference-only fast path — the manifest is re-read on SIGHUP, so replicas can share one zoo")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	reg := obsv.NewRegistry()
	var sink obsv.Sink
	if *eventsPath != "" {
		log, err := obsv.OpenLog(*eventsPath)
		if err != nil {
			return err
		}
		defer log.Close()
		sink = log
	}

	var injector *fault.Injector
	if *faultSpec != "" {
		in, err := fault.Parse(*faultSeed, *faultSpec)
		if err != nil {
			return err
		}
		injector = in
		fmt.Fprintf(out, "nptsn-serve: %s\n", injector)
	}

	var z *zoo.Zoo
	if *zooDir != "" {
		var quarantined []string
		var err error
		z, quarantined, err = zoo.Open(*zooDir)
		if err != nil {
			return err
		}
		for _, q := range quarantined {
			fmt.Fprintf(out, "nptsn-serve: zoo quarantined %s\n", q)
		}
		fmt.Fprintf(out, "nptsn-serve: zoo %s loaded (%d policies)\n", *zooDir, z.Len())
	}

	mgr, err := service.New(service.Options{
		Workers:          *workers,
		QueueSize:        *queueSize,
		Dir:              *dataDir,
		DefaultTimeout:   *jobTimeout,
		StuckTimeout:     *stuckTimeout,
		MaxAttempts:      *maxAttempts,
		VerdictCacheSize: *verdictCache,
		Metrics:          reg,
		Events:           sink,
		Fault:            injector,
		Zoo:              z,
	})
	if err != nil {
		return err
	}

	// SIGHUP re-reads the zoo manifest: a shared zoo directory repopulated
	// by nptsn-pretrain reaches every replica without a restart.
	if z != nil {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		go func() {
			for range hup {
				n, err := mgr.ReloadZoo()
				if err != nil {
					fmt.Fprintf(out, "nptsn-serve: zoo reload failed: %v\n", err)
					continue
				}
				fmt.Fprintf(out, "nptsn-serve: zoo reloaded (%d policies)\n", n)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *addrFile != "" {
		if err := writeAddrFile(*addrFile, ln.Addr().String()); err != nil {
			ln.Close()
			return err
		}
	}
	// Bound every connection's read phases so a stalled or malicious
	// client cannot pin a connection forever; responses stay unbounded
	// (result bodies are large and some clients are slow readers), which
	// is why there is no WriteTimeout.
	srv := &http.Server{
		Handler:           service.NewMux(mgr, reg),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       *httpTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	fmt.Fprintf(out, "nptsn-serve: listening on http://%s (workers %d, queue %d)\n", ln.Addr(), *workers, *queueSize)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	// Join the fleet once the API is actually reachable. The agent owns
	// registration retries and heartbeats; cancelling its context at drain
	// time deregisters gracefully, so the coordinator fails this replica's
	// jobs over immediately instead of waiting out the heartbeat timeout.
	agentDone := make(chan struct{})
	agentCancel := func() {}
	if *fleetURL != "" {
		advertise := *fleetAdv
		if advertise == "" {
			advertise = "http://" + ln.Addr().String()
		}
		id := *fleetID
		if id == "" {
			id = advertise
		}
		agent := &fleet.Agent{
			Coordinator:  *fleetURL,
			ID:           id,
			AdvertiseURL: advertise,
			Logf: func(format string, args ...interface{}) {
				fmt.Fprintf(out, format+"\n", args...)
			},
		}
		agentCtx, cancel := context.WithCancel(context.Background())
		agentCancel = cancel
		go func() {
			defer close(agentDone)
			agent.Run(agentCtx)
		}()
	} else {
		close(agentDone)
	}
	defer agentCancel()

	select {
	case err := <-serveErr:
		return err // listener failed before any shutdown signal
	case <-ctx.Done():
	}

	// Leave the fleet before draining: new work must stop routing here
	// while running jobs get their drain window.
	agentCancel()
	<-agentDone

	fmt.Fprintf(out, "nptsn-serve: draining (up to %s)\n", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop accepting connections first, then drain the job engine; a drain
	// deadline interrupts still-running jobs, whose best-so-far plans are
	// persisted like any other finished job.
	shutdownErr := srv.Shutdown(drainCtx)
	drainErr := mgr.Shutdown(drainCtx)
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if shutdownErr != nil && !errors.Is(shutdownErr, context.DeadlineExceeded) {
		return shutdownErr
	}
	if drainErr != nil && !errors.Is(drainErr, context.DeadlineExceeded) {
		return drainErr
	}
	if errors.Is(drainErr, context.DeadlineExceeded) {
		fmt.Fprintln(out, "nptsn-serve: drain deadline hit; running jobs were interrupted")
	} else {
		fmt.Fprintln(out, "nptsn-serve: drained cleanly")
	}
	return nil
}

// writeAddrFile publishes the bound address atomically so scripts polling
// for the file never read a partial write.
func writeAddrFile(path, addr string) error {
	return serialize.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, addr+"\n")
		return err
	})
}
