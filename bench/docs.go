package main

import (
	"fmt"

	"eagletree/internal/spec"
)

// sizes fixes every workload's input size. full is what the benchmark
// measures; tiny is the smoke test's scale and is never measured.
type sizes struct {
	gcSpecs    []string // committed spec documents, relative to the repo root
	mixedSpecs []string
	faultSpec  string // committed E14 document the fault-refire document is derived from
	golden     string // golden dump the committed specs are checked against; "" = none at this scale

	warmGeo     spec.Geometry
	warmIOs     int
	gridGeo     spec.Geometry
	gridIOs     int
	gridPerAxis int // variants per grid axis, five axes

	corpusExperiments, corpusVariants, corpusSeeds int // × 2 commit labels
	segmentRows                                    int

	kernelOps int // ops per kernel repetition; 0 = each kernel's own count
	minPasses int // timed passes a run never goes below
}

func fullSizes() sizes {
	full := func(ns ...int) []string {
		out := make([]string, len(ns))
		for i, n := range ns {
			out[i] = fmt.Sprintf("specs/full/e%d.json", n)
		}
		return out
	}
	return sizes{
		gcSpecs:    full(4, 8),
		mixedSpecs: full(2, 5, 6, 9, 10, 12, 13),
		faultSpec:  full(14)[0],
		golden:     "specs/full/golden.txt",
		// 4×4 LUNs × 512 blocks × 64 pages × 4 KiB = 2 GiB.
		warmGeo:           spec.Geometry{Channels: 4, LUNsPerChannel: 4, BlocksPerLUN: 512, PagesPerBlock: 64, PageSize: 4096},
		warmIOs:           500,
		gridGeo:           spec.Geometry{Channels: 2, LUNsPerChannel: 2, BlocksPerLUN: 64, PagesPerBlock: 32, PageSize: 4096},
		gridIOs:           300,
		gridPerAxis:       4, // 4^5 = 1024 variants
		corpusExperiments: 16,
		corpusVariants:    125,
		corpusSeeds:       50, // 16 × 125 × 50 × 2 = 200 000 rows
		segmentRows:       2000,
		minPasses:         3,
	}
}

func tinySizes() sizes {
	small := func(ns ...int) []string {
		out := make([]string, len(ns))
		for i, n := range ns {
			out[i] = fmt.Sprintf("specs/e%d.json", n)
		}
		return out
	}
	geo := spec.Geometry{Channels: 2, LUNsPerChannel: 2, BlocksPerLUN: 32, PagesPerBlock: 16, PageSize: 4096}
	return sizes{
		gcSpecs:           small(4),
		mixedSpecs:        small(5),
		faultSpec:         small(14)[0],
		warmGeo:           geo,
		warmIOs:           50,
		gridGeo:           geo,
		gridIOs:           30,
		gridPerAxis:       2, // 32 variants
		corpusExperiments: 2,
		corpusVariants:    5,
		corpusSeeds:       10, // 200 rows
		segmentRows:       50,
		kernelOps:         100,
		minPasses:         1,
	}
}

func baseConfig(geo spec.Geometry, seed uint64) spec.Config {
	return spec.Config{
		Geometry:      geo,
		Timing:        spec.NamedRef("slc"),
		Mapping:       spec.NamedRef("pagemap"),
		Overprovision: 0.15,
		GC:            spec.GCSpec{Policy: spec.NamedRef("greedy"), Greediness: 2},
		WL:            spec.NamedRef("off"),
		Policy:        spec.NamedRef("fifo"),
		Alloc:         spec.NamedRef("leastloaded"),
		Detector:      spec.NamedRef("none"),
		OS:            spec.OSSpec{Policy: spec.NamedRef("fifo"), QueueDepth: 32},
		Seed:          seed,
	}
}

func mixThread(ios int, readFraction float64) []spec.Thread {
	return []spec.Thread{{Type: "mix", Params: map[string]any{
		"from": 0, "space": "n", "count": ios, "read_fraction": readFraction, "depth": 16,
	}}}
}

// axis builds one grid axis: every point sets one configuration path.
func axis(name, path string, points ...any) spec.Axis {
	a := spec.Axis{Name: name}
	for _, p := range points {
		label := fmt.Sprint(p)
		if r, ok := p.(spec.Ref); ok {
			label = r.Name
			if v, ok := r.Params["prefer"]; ok {
				label += "-" + fmt.Sprint(v)
			}
		}
		a.Variants = append(a.Variants, spec.Variant{
			Label: name + "=" + label,
			Set:   map[string]any{path: p},
		})
	}
	return a
}

var (
	policyPoints = []any{
		spec.NamedRef("fifo"),
		spec.ParamRef("priority", map[string]any{"prefer": "reads"}),
		spec.ParamRef("priority", map[string]any{"prefer": "writes"}),
		spec.NamedRef("fair"),
	}
	allocPoints = []any{spec.NamedRef("leastloaded"), spec.NamedRef("roundrobin"), spec.NamedRef("striped"), spec.NamedRef("patternaware")}
	// The filled grid device keeps about nine blocks free per LUN; a target
	// near that would open every variant with a burst of catch-up collection
	// of fully valid blocks and make simulation, not per-variant cost, the story.
	greedPoints    = []any{1, 2, 3, 4}
	osPolicyPoints = []any{spec.NamedRef("fifo"), spec.NamedRef("prio"), spec.NamedRef("elevator"), spec.NamedRef("cfq")}
	osDepthPoints  = []any{4, 8, 16, 32}
)

// warmDoc is the interactive loop's document: one large aged device, sixteen
// variants that differ only in measurement knobs (scheduling policy, write
// allocator, GC greediness), so all of them restore the same prepared state
// and simulate very little.
func warmDoc(sz sizes, seed uint64) spec.Experiment {
	return spec.Experiment{
		Name: "bench-warm-restore",
		Doc:  "sixteen measurement-knob variants restored from one aged device",
		Base: baseConfig(sz.warmGeo, seed),
		Prep: &spec.Prep{FillDepth: 32, AgePasses: 1},
		// Reads only: on a device aged to its collection floor, how much GC a
		// few hundred writes set off depends on the seed, and at this length
		// that swung the pass by a fifth from one seed to the next.
		Workload: mixThread(sz.warmIOs, 1),
		Grid: []spec.Axis{
			axis("policy", "policy", policyPoints...),
			axis("alloc", "alloc", allocPoints[:2]...),
			axis("greed", "gc.greediness", greedPoints[:2]...), // at or below the base's 2, for the same reason
		},
	}
}

// gridDoc is the design-space exploration at its extreme: about a thousand
// short variants on a small device that share one fill-only preparation, so
// per-variant fixed cost dominates.
func gridDoc(sz sizes, seed uint64) spec.Experiment {
	n := sz.gridPerAxis
	return spec.Experiment{
		Name:     "bench-grid-sweep",
		Doc:      "five-axis grid of short variants over one filled device",
		Base:     baseConfig(sz.gridGeo, seed),
		Prep:     &spec.Prep{FillDepth: 32},
		Workload: mixThread(sz.gridIOs, 0.5),
		Grid: []spec.Axis{
			axis("policy", "policy", policyPoints[:n]...),
			axis("alloc", "alloc", allocPoints[:n]...),
			axis("greed", "gc.greediness", greedPoints[:n]...),
			axis("os", "os.policy", osPolicyPoints[:n]...),
			axis("qd", "os.queue_depth", osDepthPoints[:n]...),
		},
	}
}

// faultDoc derives mixed_cold's fault-refire document from the committed E14
// document: the same device, preparation and workload, but program failures
// only. E14's own variants also fail erases and retire blocks, and at seeds
// other than the golden ones that wears the device out before the workload
// ends — a typed error by design, and a benchmark workload must not have
// failing operations. Failed programs refire without retiring anything, so
// the fault path runs at every seed (fault.retries counts them;
// fault.relocations, pages moved off grown-bad blocks, stays zero).
func faultDoc(e14 spec.Experiment) spec.Experiment {
	rate := func(pf float64) spec.Variant {
		return spec.Variant{
			Label: fmt.Sprintf("program_fail=%g", pf),
			X:     pf,
			Set: map[string]any{"fault": spec.ParamRef("random", map[string]any{
				"program_fail": pf, "erase_fail": 0.0, "grown_bad": 0.0, "seed": 11,
			})},
		}
	}
	doc := e14
	doc.Name = "bench-fault-refire"
	doc.Doc = "E14's device and workload under program failures only: refire and relocation, no block retirement"
	doc.Varies = "fault: none | random(program_fail)"
	doc.Variants = []spec.Variant{{Label: "fault=none"}, rate(0.0005), rate(0.002), rate(0.008)}
	return doc
}
