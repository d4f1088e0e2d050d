// Command eagletree is the one EagleTree CLI: a subcommand binary whose
// component flags, enumerated choices and help text are generated from the
// component registry, so newly registered policies, allocators, detectors
// and workload thread types surface automatically.
//
//	eagletree run      simulate one configuration under one workload
//	eagletree record   run and capture the app-level IO stream to a trace
//	eagletree replay   replay a captured trace instead of a workload
//	eagletree state    prepare & save a device state, or inspect one
//	eagletree sweep    run the E1–E14 design-space experiments or a spec
//	eagletree worker   serve sweep variant leases to a coordinator
//	eagletree list     print the experiment index
//	eagletree spec     run any experiment spec document
//	eagletree results  query a result store written by sweep -results
//	eagletree game     guess the best scheduling combination (§3's game)
//	eagletree doc      render the component registry as SPEC.md
//
// Run 'eagletree help' for examples and 'eagletree <command> -h' for flags.
//
//eagletree:canonical
package main

import (
	"os"

	"eagletree/internal/cli"
)

func main() {
	os.Exit(cli.Main(os.Args[1:], os.Stdout, os.Stderr))
}
