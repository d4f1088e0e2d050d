// Package resultstore persists experiment results as a queryable dataset:
// one row per (spec, seed, variant, commit, Report), appended to a versioned,
// CRC-protected columnar on-disk store. Reports printed by a sweep die with
// the process; rows appended here accumulate across sweeps, seeds, commits
// and machines, and the query layer (internal/query) asks them questions —
// filter, group, aggregate with confidence intervals, diff across commits.
//
// The store is a directory of immutable segment files. Every append writes
// one new segment atomically (temp file + link), so a crash mid-append never
// corrupts existing data and concurrent appenders never interleave; readers
// concatenate segments in name order. Row identity is canonical: the spec
// document digest, the variant's canonical configuration key, the seed and
// the commit label pin exactly what produced each row, so rows from a
// distributed 4-worker sweep are bit-identical to rows from the same
// sequential sweep.
//
//eagletree:canonical
//eagletree:typederrors
package resultstore

import (
	"eagletree/internal/core"
)

// Row is one persisted variant result with its full provenance.
type Row struct {
	// Experiment is the spec document's name ("E2-queue-depth").
	Experiment string
	// Spec is the sha256 hex digest of the document's canonical encoding —
	// the provenance key pinning exactly which document produced the row.
	Spec string
	// Commit labels the code under test (a commit hash, branch or tag);
	// `results diff` joins two commits on (spec, variant, seed).
	Commit string
	// Seed is the variant's resolved configuration seed; replicate rows of
	// one variant differ only here.
	Seed uint64
	// Index is the variant's position in grid order.
	Index int
	// Variant is the variant's canonical configuration key (spec.CanonKey) —
	// the same identity the distributed fabric leases by.
	Variant string
	// Label is the variant's human label ("qd=8").
	Label string
	// X is the variant's numeric sweep coordinate where one exists.
	X float64
	// Report is the variant's measured outcome.
	Report core.Report
}

// Kind is a column's value type.
type Kind int8

const (
	// KindString columns hold identity and provenance strings.
	KindString Kind = iota
	// KindInt columns hold signed integers (durations in nanoseconds,
	// counts that may legitimately be compared signed).
	KindInt
	// KindUint columns hold unsigned counters.
	KindUint
	// KindFloat columns hold IEEE-754 doubles, stored bit-exactly.
	KindFloat
)

func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindUint:
		return "uint"
	case KindFloat:
		return "float"
	default:
		return "Kind(?)"
	}
}

// Value is one cell: exactly one field is meaningful, selected by the
// column's Kind.
type Value struct {
	Str   string
	Int   int64
	Uint  uint64
	Float float64
}

// ColumnSpec declares one column of the row schema: its name, value kind,
// metric polarity, and the accessors binding it to Row fields. The schema is
// the format: segments encode columns in schema order, and decode refuses a
// segment whose embedded schema drifted from this one.
type ColumnSpec struct {
	Name string
	Kind Kind
	// Better is the metric's polarity for regression diffs: +1 when larger
	// values are better (throughput), -1 when smaller values are better
	// (latency, write amplification, failure counts), 0 for identity and
	// neutral columns.
	Better int8
	// Get reads the column's cell out of a row; Set writes it back.
	Get func(*Row) Value
	Set func(*Row, Value)
	// The codec walks rows through the typed accessor of the column's Kind, no
	// Value in between; int columns span field types, so theirs is a pair.
	atStr   func(*Row) *string
	atUint  func(*Row) *uint64
	atFloat func(*Row) *float64
	getInt  func(*Row) int64
	setInt  func(*Row, int64)
}

// Each constructor builds the accessors from one pointer accessor, so each
// field is named exactly once in the schema below.
func scol(name string, at func(*Row) *string) ColumnSpec {
	return ColumnSpec{Name: name, Kind: KindString, atStr: at,
		Get: func(r *Row) Value { return Value{Str: *at(r)} },
		Set: func(r *Row, v Value) { *at(r) = v.Str },
	}
}

func icol[T ~int | ~int64](name string, better int8, at func(*Row) *T) ColumnSpec {
	return ColumnSpec{Name: name, Kind: KindInt, Better: better,
		getInt: func(r *Row) int64 { return int64(*at(r)) },
		setInt: func(r *Row, v int64) { *at(r) = T(v) },
		Get:    func(r *Row) Value { return Value{Int: int64(*at(r))} },
		Set:    func(r *Row, v Value) { *at(r) = T(v.Int) },
	}
}

func ucol(name string, better int8, at func(*Row) *uint64) ColumnSpec {
	return ColumnSpec{Name: name, Kind: KindUint, Better: better, atUint: at,
		Get: func(r *Row) Value { return Value{Uint: *at(r)} },
		Set: func(r *Row, v Value) { *at(r) = v.Uint },
	}
}

func fcol(name string, better int8, at func(*Row) *float64) ColumnSpec {
	return ColumnSpec{Name: name, Kind: KindFloat, Better: better, atFloat: at,
		Get: func(r *Row) Value { return Value{Float: *at(r)} },
		Set: func(r *Row, v Value) { *at(r) = v.Float },
	}
}

// columns is the schema, built once; the order is the on-disk column order.
var columns = buildColumns()

// Columns returns the row schema in on-disk order. The returned slice is
// shared and read-only.
func Columns() []ColumnSpec { return columns }

// Column returns the named column's spec.
func Column(name string) (ColumnSpec, bool) {
	for _, c := range columns {
		if c.Name == name {
			return c, true
		}
	}
	return ColumnSpec{}, false
}

// buildColumns declares every persisted column. The snapshot-completeness
// analyzer holds this function to the codec contract: adding a field to Row,
// core.Report, core.LatencySummary or core.WearSummary without extending the
// schema (and bumping the segment version) is a vet failure, not a silent
// loss of data.
//
//eagletree:snapshot encode Row core.Report core.LatencySummary core.WearSummary
//eagletree:snapshot decode Row core.Report core.LatencySummary core.WearSummary
func buildColumns() []ColumnSpec {
	return []ColumnSpec{
		// Identity and provenance.
		scol("experiment", func(r *Row) *string { return &r.Experiment }),
		scol("spec", func(r *Row) *string { return &r.Spec }),
		scol("commit", func(r *Row) *string { return &r.Commit }),
		ucol("seed", 0, func(r *Row) *uint64 { return &r.Seed }),
		icol("index", 0, func(r *Row) *int { return &r.Index }),
		scol("label", func(r *Row) *string { return &r.Label }),
		fcol("x", 0, func(r *Row) *float64 { return &r.X }),
		scol("variant", func(r *Row) *string { return &r.Variant }),

		// Report metrics, typed exactly as measured (durations in integer
		// nanoseconds, counters unsigned, ratios as bit-exact doubles).
		icol("duration_ns", 0, func(r *Row) *int64 { return (*int64)(&r.Report.Duration) }),
		fcol("throughput_iops", +1, func(r *Row) *float64 { return &r.Report.Throughput }),

		ucol("read_count", 0, func(r *Row) *uint64 { return &r.Report.ReadLatency.Count }),
		icol("read_mean_ns", -1, func(r *Row) *int64 { return (*int64)(&r.Report.ReadLatency.Mean) }),
		icol("read_std_ns", -1, func(r *Row) *int64 { return (*int64)(&r.Report.ReadLatency.Std) }),
		icol("read_p99_ns", -1, func(r *Row) *int64 { return (*int64)(&r.Report.ReadLatency.P99) }),
		icol("read_max_ns", -1, func(r *Row) *int64 { return (*int64)(&r.Report.ReadLatency.Max) }),

		ucol("write_count", 0, func(r *Row) *uint64 { return &r.Report.WriteLatency.Count }),
		icol("write_mean_ns", -1, func(r *Row) *int64 { return (*int64)(&r.Report.WriteLatency.Mean) }),
		icol("write_std_ns", -1, func(r *Row) *int64 { return (*int64)(&r.Report.WriteLatency.Std) }),
		icol("write_p99_ns", -1, func(r *Row) *int64 { return (*int64)(&r.Report.WriteLatency.P99) }),
		icol("write_max_ns", -1, func(r *Row) *int64 { return (*int64)(&r.Report.WriteLatency.Max) }),

		ucol("gc_migrated_pages", -1, func(r *Row) *uint64 { return &r.Report.GCMigratedPages }),
		ucol("gc_erases", -1, func(r *Row) *uint64 { return &r.Report.GCErases }),
		ucol("wl_migrated_pages", -1, func(r *Row) *uint64 { return &r.Report.WLMigratedPages }),
		ucol("trans_reads", -1, func(r *Row) *uint64 { return &r.Report.TransReads }),
		ucol("trans_writes", -1, func(r *Row) *uint64 { return &r.Report.TransWrites }),
		fcol("write_amp", -1, func(r *Row) *float64 { return &r.Report.WriteAmplification }),

		icol("wear_min_erase", 0, func(r *Row) *int { return &r.Report.Wear.MinErase }),
		icol("wear_max_erase", 0, func(r *Row) *int { return &r.Report.Wear.MaxErase }),
		fcol("wear_mean_erase", 0, func(r *Row) *float64 { return &r.Report.Wear.MeanErase }),
		fcol("wear_std_erase", -1, func(r *Row) *float64 { return &r.Report.Wear.StdErase }),
		icol("wear_past_endurance", -1, func(r *Row) *int { return &r.Report.Wear.PastEndurance }),
		icol("wear_bad_blocks", -1, func(r *Row) *int { return &r.Report.Wear.BadBlocks }),

		ucol("retries", -1, func(r *Row) *uint64 { return &r.Report.Retries }),
		ucol("relocations", -1, func(r *Row) *uint64 { return &r.Report.Relocations }),
		ucol("erase_failures", -1, func(r *Row) *uint64 { return &r.Report.EraseFailures }),
		ucol("grown_bad_blocks", -1, func(r *Row) *uint64 { return &r.Report.GrownBadBlocks }),
		fcol("effective_op", +1, func(r *Row) *float64 { return &r.Report.EffectiveOP }),

		icol("max_pending_os", 0, func(r *Row) *int { return &r.Report.MaxPendingOS }),
		icol("max_in_flight", 0, func(r *Row) *int { return &r.Report.MaxInFlight }),
	}
}
