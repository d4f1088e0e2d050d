// Open interface tour: the three extensions the paper sketches — priorities,
// update-locality, temperatures — each demonstrated against block-device
// mode on the same workload, using the experiment suite.
//
//	go run ./examples/openinterface
package main

import (
	"context"
	"fmt"
	"log"

	"eagletree"
)

func main() {
	// Priorities: a latency-critical reader against a background writer.
	prio := eagletree.Experiment{
		Name: "priorities",
		Base: func() eagletree.Config {
			cfg := eagletree.SmallConfig()
			cfg.Controller.Policy = &eagletree.SSDPriority{UseTags: true}
			// The SSD can only reorder what it can see: a shallow OS queue
			// keeps tagged IOs stuck in the (FIFO) OS pool, hiding the
			// benefit — a cross-layer interaction worth reproducing.
			cfg.OS.QueueDepth = 64
			return cfg
		},
		Variants: []eagletree.Variant{
			{Label: "block-device"},
			{Label: "open", Mutate: func(c *eagletree.Config) { c.Controller.OpenInterface = true }},
		},
		Prep: eagletree.PrepareSpec{FillDepth: 32},
		Workload: func(s *eagletree.Stack) {
			n := int64(s.LogicalPages())
			s.Add(&eagletree.RandomWriter{From: 0, Space: n, Count: 3000, Depth: 32})
			s.Add(&eagletree.RandomReader{From: 0, Space: n, Count: 800, Depth: 4,
				Tags: eagletree.Tags{Priority: eagletree.PriorityHigh}})
		},
	}

	// Update-locality: a file system whose files die as units.
	locality := eagletree.Experiment{
		Name: "update-locality",
		Base: func() eagletree.Config {
			cfg := eagletree.SmallConfig()
			cfg.Controller.OpenInterface = true
			return cfg
		},
		Variants: []eagletree.Variant{
			{Label: "block-device", Mutate: func(c *eagletree.Config) {
				c.Controller.OpenInterface = false
				c.LockBus = true
			}},
			{Label: "open"},
		},
		Workload: func(s *eagletree.Stack) {
			n := int64(s.LogicalPages())
			s.Add(&eagletree.FileSystem{From: 0, Space: n, Ops: 800, Depth: 16,
				MeanFilePages: 24, TagLocality: true})
		},
	}

	// Temperatures: zipf overwrite with oracle tags vs nothing.
	temps := eagletree.Experiment{
		Name: "temperatures",
		Base: func() eagletree.Config {
			cfg := eagletree.SmallConfig()
			cfg.Controller.OpenInterface = true
			return cfg
		},
		Variants: []eagletree.Variant{
			{Label: "untagged"},
			{Label: "oracle-tags", Workload: func(s *eagletree.Stack) {
				zipf(s, true)
			}},
		},
		Prep: eagletree.PrepareSpec{FillDepth: 32},
		Workload: func(s *eagletree.Stack) {
			zipf(s, false)
		},
	}

	runner := eagletree.NewRunner(eagletree.ExperimentOptions{})
	for _, def := range []eagletree.Experiment{prio, locality, temps} {
		res, err := runner.Run(context.Background(), def)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res.Table())
	}
	fmt.Println("Unlocking the interface is the paper's 'red lock': the same workload,")
	fmt.Println("the same SSD — only the information crossing the interface changed.")
}

func zipf(s *eagletree.Stack, oracle bool) {
	n := int64(s.LogicalPages())
	s.Add(&eagletree.ZipfWriter{From: 0, Space: n, Count: 2 * n, Exponent: 1.2,
		Depth: 32, TagTemperature: oracle, HotFraction: 0.2})
}
