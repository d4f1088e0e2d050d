package main

import (
	"fmt"
	"math"
	"os"
)

// suite runs every workload, each in its own child process, repeat times
// over, prints every result, and — when repeated — holds the sets against
// each other: end-to-end metrics within their bounds, counts and digests
// exactly.
func suite(build string, seed uint64, seconds float64, traced bool, repeat int, out string) error {
	var sets [][]*result
	for r := 0; r < repeat; r++ {
		var set []*result
		for _, w := range workloads {
			res, err := child(build, w.name, seed, seconds, false)
			if err != nil {
				return err
			}
			set = append(set, res)
			if traced {
				if res, err = child(build, w.name, seed, seconds, true); err != nil {
					return err
				}
				set = append(set, res)
			}
		}
		sets = append(sets, set)
	}
	failed := false
	for r, set := range sets {
		if repeat > 1 {
			fmt.Printf("==== set %d of %d\n", r+1, repeat)
		}
		for _, res := range set {
			report(os.Stdout, res)
			fmt.Println()
			failed = failed || !res.Correct
		}
	}
	if out != "" {
		if err := writeJSON(out, sets); err != nil {
			return err
		}
	}
	for r := 1; r < len(sets); r++ {
		if !agree(sets[0], sets[r], r+1) {
			failed = true
		}
	}
	if failed {
		return fmt.Errorf("some operations failed or two sets of runs disagree; see above")
	}
	return nil
}

// exact says whether a per-layer metric is a simulated or structural quantity
// that must repeat exactly. The wire's byte count is not one: its messages
// carry wall-clock telemetry whose digits vary.
func exact(d metricDef) bool {
	switch d.Unit {
	case "count", "B", "B/row":
		return d.Name != "fabric.wire_bytes"
	case "ratio":
		return d.Name != "trace.overhead_ratio"
	}
	return false
}

// agree compares set b with set a, result by result, and prints one line per
// end-to-end metric: both values, their relative difference, the bound.
func agree(a, b []*result, nth int) bool {
	ok := true
	fmt.Printf("==== set 1 against set %d\n", nth)
	for i := range a {
		ra, rb := a[i], b[i]
		if ra.Digest != rb.Digest {
			fmt.Printf("%-14s report_digest differs: %s vs %s\n", ra.Workload, ra.Digest, rb.Digest)
			ok = false
		}
		if ra.Traced {
			for _, d := range perLayer {
				if va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value; exact(d) && va != vb {
					fmt.Printf("%-14s %-32s %.17g vs %.17g: a count must repeat exactly\n", ra.Workload, d.Name, va, vb)
					ok = false
				}
			}
			continue
		}
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			diff := math.Abs(vb-va) / va
			verdict := "ok"
			if diff > d.Bound {
				verdict, ok = "DISAGREE", false
			}
			fmt.Printf("%-14s %-20s %14.6g %14.6g %-6s diff %6.2f%%  bound %4.0f%%  %s\n",
				ra.Workload, d.Name, va, vb, d.Unit, 100*diff, 100*d.Bound, verdict)
		}
	}
	return ok
}
