package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"

	"eagletree/internal/experiment"
	"eagletree/internal/fabric"
)

// cmdWorker runs one sweep-fabric worker: a process that executes variant
// leases handed to it by `eagletree sweep -distribute/-connect` over the
// fabric's framed wire protocol. The default transport is stdio (the coordinator
// launches workers as subprocesses); -listen serves the same protocol over
// TCP for workers on other machines.
func cmdWorker(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("eagletree worker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		serve    = fs.String("serve", "stdio", "transport: stdio (coordinator subprocess) — protocol messages on stdin/stdout, logs on stderr")
		listen   = fs.String("listen", "", "serve the worker protocol on this TCP address (host:port) instead of stdio, one coordinator session at a time")
		cacheDir = fs.String("state-cache", "", "persist prepared device states under this directory, shared with other local workers")
		quiet    = fs.Bool("quiet", false, "suppress per-lease progress logs on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logf := func(format string, args ...any) { fmt.Fprintf(stderr, format+"\n", args...) }
	if *quiet {
		logf = nil
	}
	opts := fabric.WorkerOptions{Logf: logf}
	if *cacheDir != "" {
		opts.Cache = experiment.NewStateCache(*cacheDir)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		<-sigc
		cancel()
	}()

	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			return fail(stderr, err)
		}
		defer ln.Close()
		go func() {
			<-ctx.Done()
			ln.Close()
		}()
		fmt.Fprintf(stderr, "eagletree worker: listening on %s\n", ln.Addr())
		for {
			conn, err := ln.Accept()
			if err != nil {
				if ctx.Err() != nil {
					return 0
				}
				return fail(stderr, err)
			}
			// One coordinator session at a time: a worker is a single
			// simulation slot, and concurrent sweeps would fight for it.
			if err := fabric.Serve(ctx, conn, conn, opts); err != nil {
				fmt.Fprintf(stderr, "eagletree worker: session: %v\n", err)
			}
			conn.Close()
		}
	}

	if *serve != "stdio" {
		return fail(stderr, fmt.Errorf("unknown transport %q (want stdio, or use -listen)", *serve))
	}
	// stdout carries the protocol; logs go to stderr only.
	if err := fabric.Serve(ctx, os.Stdin, stdout, opts); err != nil {
		return fail(stderr, err)
	}
	return 0
}
