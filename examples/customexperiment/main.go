// Command customexperiment is the "experiments as data" walkthrough: it
// defines a design-space experiment that exists nowhere in the compiled
// suite — comparing OS scheduling policies (including the deliberately
// SSD-hostile elevator) over an aged device — purely as a spec document,
// then resolves and runs it through the component registry.
//
// The embedded custom.json is the entire experiment: base configuration
// with every component named, device preparation, a two-thread workload
// sized by expressions over the device capacity ("2000*f", "n/2", "ppb"),
// and a variant grid overriding configuration paths. Edit the JSON — swap
// "policy": "fifo" for {"name": "deadline", "params": {...}}, add a
// variant, change the geometry — and rerun; no Go code changes needed.
// The same file runs from the CLI: eagletree spec custom.json or
// eagletree sweep -spec custom.json.
package main

import (
	"context"
	_ "embed"
	"fmt"
	"os"
	"os/signal"

	"eagletree"
)

//go:embed custom.json
var customSpec []byte

func main() {
	doc, err := eagletree.DecodeExperimentSpec(customSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "customexperiment:", err)
		os.Exit(1)
	}
	def, err := eagletree.ExperimentFromSpec(doc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "customexperiment:", err)
		os.Exit(1)
	}

	// The streaming Runner is the first-class run API: ^C cancels mid-sweep
	// (Run returns the completed variants alongside its error), and the event
	// stream reports each variant's lifecycle with its snapshot-cache
	// provenance — hit means the variant restored an already-aged device.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	runner := eagletree.NewRunner(eagletree.ExperimentOptions{
		Observer: eagletree.ExperimentObserverFunc(func(ev eagletree.ExperimentEvent) {
			switch ev.Kind {
			case eagletree.EventPrepareMiss:
				fmt.Fprintf(os.Stderr, "  %s: aging a fresh device (%v)\n", ev.Variant, ev.Wall)
			case eagletree.EventPrepareHit:
				fmt.Fprintf(os.Stderr, "  %s: restored the shared aged state (%v)\n", ev.Variant, ev.Wall)
			case eagletree.EventVariantDone:
				fmt.Fprintf(os.Stderr, "  %s: done in %v\n", ev.Variant, ev.Wall)
			}
		}),
	})
	res, err := runner.Run(ctx, def)
	if err != nil {
		fmt.Fprintln(os.Stderr, "customexperiment:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n%s\n\n", doc.Doc, doc.Varies)
	fmt.Println(res.Table())
	fmt.Println(res.Chart(eagletree.MetricReadMean, 40))

	// The registry is introspectable: everything a spec may name, with its
	// typed parameters, straight from the components themselves.
	fmt.Println("registered OS policies a spec can name:")
	for _, c := range eagletree.SpecCatalogue(eagletree.SpecKindOSPolicy) {
		fmt.Printf("  %-10s %s\n", c.Name, c.Doc)
		for _, p := range c.Params {
			fmt.Printf("             %s (%s): %s\n", p.Name, p.Type, p.Doc)
		}
	}
}
