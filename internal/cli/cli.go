// Package cli implements the eagletree subcommand binary.
//
//eagletree:canonical
package cli

import (
	"fmt"
	"io"
)

// Main dispatches one eagletree invocation; argv excludes the program name.
// It returns the process exit code instead of calling os.Exit, so tests can
// drive it.
func Main(argv []string, stdout, stderr io.Writer) int {
	if len(argv) == 0 {
		usage(stderr)
		return 2
	}
	cmd, args := argv[0], argv[1:]
	switch cmd {
	case "run":
		return cmdRun(args, stdout, stderr)
	case "record":
		return cmdRecord(args, stdout, stderr)
	case "replay":
		return cmdReplay(args, stdout, stderr)
	case "state":
		return cmdState(args, stdout, stderr)
	case "sweep":
		return cmdSweep(args, stdout, stderr)
	case "worker":
		return cmdWorker(args, stdout, stderr)
	case "list":
		return cmdList(args, stdout, stderr)
	case "spec":
		return cmdSpec(args, stdout, stderr)
	case "results":
		return cmdResults(args, stdout, stderr)
	case "game":
		return cmdGame(args, stdout, stderr)
	case "doc":
		return cmdDoc(args, stdout, stderr)
	case "help", "-h", "-help", "--help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "eagletree: unknown command %q\n\n", cmd)
		usage(stderr)
		return 2
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `eagletree — explore the design space of SSD-based algorithms (PVLDB'13)

Usage: eagletree <command> [flags] [args]

Commands:
  run      simulate one configuration under one workload and print the report
  record   run and capture the app-level IO stream to a trace file
  replay   replay a captured trace file instead of a synthetic workload
  state    prepare a device and save its state (state save), or inspect one (state info)
  sweep    run predefined design-space experiments (E1–E14) or a spec file
  worker   serve sweep variant leases to a distributing coordinator (stdio or TCP)
  list     print the experiment index from the suite's spec data
  spec     run any experiment spec document (single runs and variant grids)
  results  query a result store written by 'sweep -results' (ls, query, diff)
  game     guess the scheduling combination with the best composite score (§3's game)
  doc      render the component registry as the SPEC.md reference page

Component flags (-policy, -alloc, -gc, -wl, -detector, -mapping, -timing,
-faults, -os-policy) and workload types are generated from the component registry:
"name" or "name:key=val,key=val". 'eagletree doc' lists every choice and
parameter; 'eagletree <command> -h' shows a command's flags.

Examples:
  eagletree run -workload mix -count 20000 -policy deadline:read_deadline=2ms,write_deadline=20ms
  eagletree run -workload zipf -open -oracle-temp -series
  eagletree record -o fs.etb -workload fs -prepare
  eagletree replay fs.etb -mode open -policy priority:prefer=reads
  eagletree state save aged.state
  eagletree run -load-state aged.state -workload mix
  eagletree sweep -run e3,e11 -workers 4
  eagletree sweep -run e4 -scale full -distribute 4 -state-cache ~/.cache/et-states
  eagletree worker -listen :9313 & eagletree sweep -run e4 -connect localhost:9313
  eagletree spec specs/e12.json
  eagletree sweep -run e2 -seeds 7,12345 -results results/ -label HEAD
  eagletree results diff -store results/ -a main -b HEAD -fail-on-regress
  eagletree game -prefer reads -internal last
  eagletree doc -o SPEC.md
`)
}
