package spec

import (
	"fmt"
	"reflect"
	"strings"
)

// kindSections orders the catalogue for documentation: every registered
// kind, with the heading and one-line introduction SPEC.md renders.
var kindSections = []struct {
	Kind  Kind
	Title string
	Intro string
}{
	{KindPolicy, "SSD scheduling policies (`policy`)",
		"Order the controller's single IO queue."},
	{KindAllocator, "Write allocators (`alloc`)",
		"Decide which LUN a write lands on."},
	{KindGCPolicy, "GC victim policies (`gc.policy`)",
		"Select which block garbage collection reclaims."},
	{KindWL, "Wear-leveling modes (`wl`)",
		"Static scans and/or age-aware allocation, with shared tuning knobs."},
	{KindDetector, "Hot/cold detectors (`detector`)",
		"Classify written pages hot or cold for stream separation."},
	{KindMapping, "Mapping schemes (`mapping`)",
		"The FTL's logical-to-physical translation structure."},
	{KindTiming, "Flash timings (`timing`)",
		"Per-operation flash chip latencies."},
	{KindFault, "Fault-injection models (`fault`)",
		"Seeded, deterministic program/erase failures and grown bad blocks; the controller relocates around retired blocks."},
	{KindOSPolicy, "OS scheduling policies (`os.policy`)",
		"Order the operating system's pending pool."},
	{KindThread, "Workload thread types (`workload[].type`)",
		"Simulated applications; integer-shaped parameters accept expressions over `n`, `ppb`, `qd`, `f`, `i`."},
}

// Markdown renders the full component catalogue as a markdown reference
// page: every kind, every registered component, every typed parameter with
// its documentation. The output is deterministic (registration order), so a
// committed SPEC.md can be diffed against a regeneration to prove it is
// fresh — which is exactly what `eagletree doc` and the CI freshness gate
// do. New registrations, including application components added through
// RegisterSpecComponent, appear automatically.
func Markdown() string {
	var b strings.Builder
	b.WriteString("# EagleTree component & spec reference\n\n")
	b.WriteString("<!-- Generated by `eagletree doc`. Do not edit: regenerate with `eagletree doc -o SPEC.md`. -->\n\n")
	b.WriteString("Every pluggable component of the stack, generated from the live component\n")
	b.WriteString("registry (`internal/spec`). Spec documents reference components by name —\n")
	b.WriteString("as a bare string (`\"policy\": \"fifo\"`) or with parameters\n")
	b.WriteString("(`\"policy\": {\"name\": \"priority\", \"params\": {\"prefer\": \"reads\"}}`).\n")
	b.WriteString("The same names drive the generated CLI flags (`eagletree run -policy\n")
	b.WriteString("name:key=value,...`).\n\n")

	b.WriteString("## Document form\n\n")
	b.WriteString("An experiment document (versioned JSON, `spec.Experiment`) holds:\n\n")
	b.WriteString("| Field | Meaning |\n|---|---|\n")
	b.WriteString("| `version` | format version (currently " + fmt.Sprint(Version) + ") |\n")
	b.WriteString("| `name`, `doc`, `varies` | identity and index listing |\n")
	b.WriteString("| `factor` | workload scale factor, exposed to expressions as `f` |\n")
	b.WriteString("| `base` | the shared configuration (components by name) |\n")
	b.WriteString("| `prepare` | device preparation: `fill_depth`, `age_passes`, `age_depth` |\n")
	b.WriteString("| `workload` | measured thread list (`type`, `params`, `repeat`) |\n")
	b.WriteString("| `variants` | explicit sweep list: `label`, `x`, `set`, `prepare`, `workload`; with neither `variants` nor `grid`, the base runs once as the implicit variant `run` |\n")
	b.WriteString("| `grid` | sweep as a cross-product of axes (mutually exclusive with `variants`): each axis is `{name, variants}`, combination labels join with `,` and override sets merge |\n")
	b.WriteString("| `series_bucket` | completion time-series bucket width |\n\n")

	b.WriteString("## Configuration paths\n\n")
	b.WriteString("Every path a variant `set` addresses, read off the `base` configuration's\n")
	b.WriteString("fields. A `slot.param` path — `policy.internal`, `mapping.cmt`,\n")
	b.WriteString("`gc.policy.<param>` — overrides one parameter of the component currently\n")
	b.WriteString("referenced at a component slot, which is how independent grid axes\n")
	b.WriteString("parameterize one component.\n\n")
	b.WriteString("| Path | Type |\n|---|---|\n")
	paths := configPaths()
	for _, name := range sortedKeys(paths) {
		fmt.Fprintf(&b, "| `%s` | %s |\n", name, pathType(paths[name].Type))
	}

	for _, sec := range kindSections {
		b.WriteString("\n## " + sec.Title + "\n\n")
		b.WriteString(sec.Intro + "\n")
		for _, c := range Catalogue(sec.Kind) {
			b.WriteString("\n### `" + c.Name + "`\n\n")
			b.WriteString(c.Doc + "\n")
			if len(c.Params) > 0 {
				b.WriteString("\n| Parameter | Type | Description |\n|---|---|---|\n")
				for _, p := range c.Params {
					typ := p.Type.String()
					if p.Type == TComponent {
						typ = string(p.Of) + " component"
					}
					fmt.Fprintf(&b, "| `%s` | %s | %s |\n", p.Name, typ, p.Doc)
				}
			}
		}
	}
	return b.String()
}

// pathType names a configuration path's value type as parameter tables do.
func pathType(t reflect.Type) string {
	switch {
	case t == reflect.TypeFor[Duration]():
		return TDuration.String()
	case t == refType || t == refPtrType:
		return TComponent.String()
	case t.Kind() == reflect.Bool:
		return TBool.String()
	case t.Kind() == reflect.Float64:
		return TFloat.String()
	case t.Kind() == reflect.Uint64:
		return "int ≥ 0"
	}
	return TInt.String()
}
