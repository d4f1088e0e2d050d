// Open interface tour: the three extensions the paper sketches — priorities,
// update-locality, temperatures — each demonstrated against block-device
// mode on the same workload, using the experiment suite.
//
// Each experiment is an embedded spec document (priorities.json,
// locality.json, temperatures.json); the same files run from the CLI:
// eagletree sweep -spec examples/openinterface/priorities.json.
//
//	go run ./examples/openinterface
package main

import (
	"context"
	_ "embed"
	"fmt"
	"log"

	"eagletree"
)

var (
	// Priorities: a latency-critical reader against a background writer. The
	// SSD can only reorder what it can see: a shallow OS queue keeps tagged
	// IOs stuck in the (FIFO) OS pool, hiding the benefit — a cross-layer
	// interaction worth reproducing, hence queue depth 64.
	//go:embed priorities.json
	priorities []byte
	// Update-locality: a file system whose files die as units.
	//go:embed locality.json
	locality []byte
	// Temperatures: zipf overwrite with oracle tags vs nothing.
	//go:embed temperatures.json
	temperatures []byte
)

func main() {
	runner := eagletree.NewRunner(eagletree.ExperimentOptions{})
	for _, data := range [][]byte{priorities, locality, temperatures} {
		doc, err := eagletree.DecodeExperimentSpec(data)
		if err != nil {
			log.Fatal(err)
		}
		def, err := eagletree.ExperimentFromSpec(doc)
		if err != nil {
			log.Fatal(err)
		}
		res, err := runner.Run(context.Background(), def)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res.Table())
	}
	fmt.Println("Unlocking the interface is the paper's 'red lock': the same workload,")
	fmt.Println("the same SSD — only the information crossing the interface changed.")
}
