// Command nptsn-fleet runs the planning-fleet coordinator: one HTTP
// endpoint exposing the same /v1/jobs API a single nptsn-serve replica
// does, fronting N replicas that register and heartbeat with it.
//
//	nptsn-fleet -addr localhost:9090 -heartbeat-interval 1s
//	nptsn-serve -addr localhost:0 -fleet http://localhost:9090 &
//	nptsn-serve -addr localhost:0 -fleet http://localhost:9090 &
//
//	curl -s -X POST localhost:9090/v1/jobs?certify=1 -d @job.json
//	curl -s localhost:9090/v1/fleet
//
// Jobs shard by problem fingerprint on a consistent-hash ring, replicas
// are tracked alive → suspect → dead by heartbeat silence, and the jobs
// of a dead replica are re-served to the next replica on the ring using
// fingerprint adoption, so a failover never plans the same problem twice.
//
// The -fault schedule injects wire-level chaos (point http.roundtrip:
// error, delay, hang, torn response bodies) into every coordinator →
// replica call, for drills against the fleet itself.
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
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nptsn-fleet:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("nptsn-fleet", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", "localhost:9090", "HTTP listen address (use port 0 for an ephemeral port)")
		addrFile     = fs.String("addr-file", "", "write the bound address to this file once listening (for scripts using port 0)")
		hbInterval   = fs.Duration("heartbeat-interval", time.Second, "pace replicas are told to heartbeat at")
		suspectAfter = fs.Duration("suspect-after", 0, "heartbeat silence before a replica turns suspect (0 = 3x heartbeat)")
		deadAfter    = fs.Duration("dead-after", 0, "heartbeat silence before a replica is declared dead and its jobs fail over (0 = 8x heartbeat)")
		callTimeout  = fs.Duration("call-timeout", 10*time.Second, "deadline per coordinator-to-replica call, retries and backoff included; hung replicas fail over after it")
		vnodes       = fs.Int("virtual-nodes", 0, "consistent-hash points per replica (0 = 128)")
		eventsPath   = fs.String("events", "", "append JSON-lines fleet lifecycle events to this file")
		httpTimeout  = fs.Duration("http-timeout", time.Minute, "HTTP read timeout per client request (0 = none)")
		faultSpec    = fs.String("fault", "", "fault-injection schedule for chaos drills, e.g. 'http.roundtrip:torn:p=0.2;http.roundtrip:hang:calls=3' (empty = off)")
		faultSeed    = fs.Int64("fault-seed", 1, "seed of the -fault schedule; the same seed replays the same fault decisions")
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

	// Replica calls share one transport; a -fault schedule wraps it so
	// every coordinator→replica round trip passes the injector.
	replicaHTTP := &http.Client{}
	if *faultSpec != "" {
		in, err := fault.Parse(*faultSeed, *faultSpec)
		if err != nil {
			return err
		}
		replicaHTTP.Transport = &fault.Transport{In: in}
		fmt.Fprintf(out, "nptsn-fleet: %s\n", in)
	}

	c := fleet.New(fleet.Options{
		HeartbeatInterval: *hbInterval,
		SuspectAfter:      *suspectAfter,
		DeadAfter:         *deadAfter,
		CallTimeout:       *callTimeout,
		VirtualNodes:      *vnodes,
		HTTP:              replicaHTTP,
		Metrics:           reg,
		Events:            sink,
	})
	defer c.Close()

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
	srv := &http.Server{
		Handler:           fleet.NewMux(c, reg),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       *httpTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	fmt.Fprintf(out, "nptsn-fleet: coordinating on http://%s (heartbeat %s)\n", ln.Addr(), *hbInterval)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// The coordinator holds no job state the replicas don't: shut the
	// listener, stop the monitor, and let replicas finish what they own.
	// A restarted coordinator re-learns the fleet from re-registrations
	// and re-finds finished work through fingerprint adoption.
	fmt.Fprintln(out, "nptsn-fleet: shutting down")
	shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	shutdownErr := srv.Shutdown(shCtx)
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if shutdownErr != nil && !errors.Is(shutdownErr, context.DeadlineExceeded) {
		return shutdownErr
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
