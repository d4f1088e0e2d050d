// GC tuning walk-through: sweep the GC greediness parameter and watch the
// trade-off the paper describes in §2.2 — waiting as long as possible before
// collecting maximizes invalid pages per victim (low write amplification),
// but leaves less slack for incoming writes (worse tail latency).
//
// The embedded gctuning.json is the whole experiment; the same file runs
// from the CLI: eagletree sweep -spec examples/gctuning/gctuning.json.
//
//	go run ./examples/gctuning
package main

import (
	"context"
	_ "embed"
	"fmt"
	"log"

	"eagletree"
)

//go:embed gctuning.json
var gcSpec []byte

func main() {
	doc, err := eagletree.DecodeExperimentSpec(gcSpec)
	if err != nil {
		log.Fatal(err)
	}
	def, err := eagletree.ExperimentFromSpec(doc)
	if err != nil {
		log.Fatal(err)
	}

	res, err := eagletree.NewRunner(eagletree.ExperimentOptions{}).Run(context.Background(), def)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Table())
	fmt.Println(res.Chart(eagletree.MetricWA, 40))
	fmt.Println(res.Chart(eagletree.MetricWriteP99, 40))
	fmt.Println("Lazy GC (greediness=1) migrates the fewest pages; greedy GC pays")
	fmt.Println("migrations for smoother latency. The right setting depends on which")
	fmt.Println("the workload cares about — which is why it is a parameter.")
}
