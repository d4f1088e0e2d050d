// GC tuning walk-through: sweep the GC greediness parameter and watch the
// trade-off the paper describes in §2.2 — waiting as long as possible before
// collecting maximizes invalid pages per victim (low write amplification),
// but leaves less slack for incoming writes (worse tail latency).
//
//	go run ./examples/gctuning
package main

import (
	"context"
	"fmt"
	"log"

	"eagletree"
)

func main() {
	def := eagletree.Experiment{
		Name: "gc-greediness",
		Base: eagletree.SmallConfig,
		Variants: []eagletree.Variant{
			variant(1), variant(2), variant(3), variant(4), variant(6), variant(8),
		},
		Prep: eagletree.PrepareSpec{FillDepth: 32, AgePasses: 1},
		Workload: func(s *eagletree.Stack) {
			n := int64(s.LogicalPages())
			s.Add(&eagletree.RandomWriter{From: 0, Space: n, Count: 2 * n, Depth: 32})
		},
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

func variant(g int) eagletree.Variant {
	return eagletree.Variant{
		Label:  fmt.Sprintf("greediness=%d", g),
		X:      float64(g),
		Mutate: func(c *eagletree.Config) { c.Controller.GCGreediness = g },
	}
}
