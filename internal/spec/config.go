package spec

import (
	"encoding/json"
	"fmt"

	"eagletree/internal/controller"
	"eagletree/internal/core"
	"eagletree/internal/fault"
	"eagletree/internal/flash"
	"eagletree/internal/gc"
	"eagletree/internal/hotcold"
	"eagletree/internal/osched"
	"eagletree/internal/sched"
	"eagletree/internal/wl"
)

// Config is the serializable mirror of core.Config: every structural and
// behavioral knob of the stack, with pluggable components referenced by
// registered name instead of held as live Go values. A zero field means
// "the stack's default" — Resolve leaves the corresponding core.Config
// field zero and the runtime default fill-in applies, exactly as it would
// for a hand-built configuration.
//
// Runtime-only wiring (completion callbacks, trace sinks, capture hooks) has
// no mirror here: a spec describes a configuration, not a live process.
type Config struct {
	Geometry      Geometry        `json:"geometry"`
	Timing        Ref             `json:"timing,omitempty"`
	Features      Features        `json:"features,omitempty"`
	Mapping       Ref             `json:"mapping,omitempty"`
	Overprovision float64         `json:"overprovision,omitempty"`
	GC            GCSpec          `json:"gc,omitempty"`
	WL            Ref             `json:"wl,omitempty"`
	Policy        Ref             `json:"policy,omitempty"`
	Alloc         Ref             `json:"alloc,omitempty"`
	Detector      Ref             `json:"detector,omitempty"`
	OpenInterface bool            `json:"open_interface,omitempty"`
	WriteBuffer   WriteBufferSpec `json:"write_buffer,omitempty"`
	RAM           RAMSpec         `json:"ram,omitempty"`
	BadBlocks     BadBlockSpec    `json:"bad_blocks,omitempty"`
	// Fault is a pointer so the no-fault default serializes as an absent
	// field: existing specs and cache keys stay byte-stable.
	Fault        *Ref     `json:"fault,omitempty"`
	OS           OSSpec   `json:"os,omitempty"`
	Seed         uint64   `json:"seed,omitempty"`
	SeriesBucket Duration `json:"series_bucket,omitempty"`
	TraceCap     int      `json:"trace_cap,omitempty"`
	LockBus      bool     `json:"lock_bus,omitempty"`
}

// Geometry mirrors flash.Geometry.
type Geometry struct {
	Channels       int `json:"channels"`
	LUNsPerChannel int `json:"luns_per_channel"`
	BlocksPerLUN   int `json:"blocks_per_lun"`
	PagesPerBlock  int `json:"pages_per_block"`
	PageSize       int `json:"page_size"`
}

// Features mirrors flash.Features.
type Features struct {
	Copyback     bool `json:"copyback,omitempty"`
	Interleaving bool `json:"interleaving,omitempty"`
}

// GCSpec groups garbage-collection knobs: the victim policy plus the
// controller-level greediness and copyback flags.
type GCSpec struct {
	Policy     Ref  `json:"policy,omitempty"`
	Greediness int  `json:"greediness,omitempty"`
	Copyback   bool `json:"copyback,omitempty"`
}

// WriteBufferSpec mirrors the battery-backed RAM write buffer knobs.
type WriteBufferSpec struct {
	Pages   int      `json:"pages,omitempty"`
	Latency Duration `json:"latency,omitempty"`
}

// RAMSpec mirrors the controller memory budgets.
type RAMSpec struct {
	Bytes     int64 `json:"bytes,omitempty"`
	SafeBytes int64 `json:"safe_bytes,omitempty"`
}

// BadBlockSpec mirrors the factory bad-block model.
type BadBlockSpec struct {
	Fraction float64 `json:"fraction,omitempty"`
	Seed     uint64  `json:"seed,omitempty"`
}

// OSSpec mirrors osched.Config.
type OSSpec struct {
	Policy     Ref `json:"policy,omitempty"`
	QueueDepth int `json:"queue_depth,omitempty"`
}

// Resolve builds the live core.Config: every component reference is
// constructed through the registry (fresh instances on every call — policies
// and detectors are stateful, so resolved configurations are never shared).
// Unset references stay nil and pick up the stack's runtime defaults.
func (c Config) Resolve() (core.Config, error) {
	var cfg core.Config
	cfg.Seed = c.Seed
	cfg.SeriesBucket = c.SeriesBucket.D()
	cfg.TraceCap = c.TraceCap
	cfg.LockBus = c.LockBus

	ctl := &cfg.Controller
	ctl.Geometry = flash.Geometry{
		Channels:       c.Geometry.Channels,
		LUNsPerChannel: c.Geometry.LUNsPerChannel,
		BlocksPerLUN:   c.Geometry.BlocksPerLUN,
		PagesPerBlock:  c.Geometry.PagesPerBlock,
		PageSize:       c.Geometry.PageSize,
	}
	ctl.Features = flash.Features{Copyback: c.Features.Copyback, Interleaving: c.Features.Interleaving}
	ctl.Overprovision = c.Overprovision
	ctl.GCGreediness = c.GC.Greediness
	ctl.GCCopyback = c.GC.Copyback
	ctl.OpenInterface = c.OpenInterface
	ctl.WriteBufferPages = c.WriteBuffer.Pages
	ctl.WriteBufferLatency = c.WriteBuffer.Latency.D()
	ctl.RAMBytes = c.RAM.Bytes
	ctl.SafeRAMBytes = c.RAM.SafeBytes
	ctl.BadBlockFraction = c.BadBlocks.Fraction
	ctl.BadBlockSeed = c.BadBlocks.Seed
	cfg.OS.QueueDepth = c.OS.QueueDepth

	var env Env // configurations carry no workload expressions
	var err error
	if !c.Timing.None() {
		if ctl.Timing, err = makeAs[flash.Timing](KindTiming, c.Timing, env); err != nil {
			return cfg, fmt.Errorf("spec: timing: %w", err)
		}
	}
	if !c.Mapping.None() {
		m, err := makeAs[MappingChoice](KindMapping, c.Mapping, env)
		if err != nil {
			return cfg, fmt.Errorf("spec: mapping: %w", err)
		}
		ctl.Mapping = m.Scheme
		ctl.CMTEntries = m.CMTEntries
		ctl.ReservedTransBlocks = m.ReservedTransBlocks
	}
	if !c.GC.Policy.None() {
		if ctl.GCPolicy, err = makeAs[gc.VictimPolicy](KindGCPolicy, c.GC.Policy, env); err != nil {
			return cfg, fmt.Errorf("spec: gc policy: %w", err)
		}
	}
	if !c.WL.None() {
		if ctl.WL, err = makeAs[wl.Config](KindWL, c.WL, env); err != nil {
			return cfg, fmt.Errorf("spec: wear leveling: %w", err)
		}
	}
	if !c.Policy.None() {
		if ctl.Policy, err = makeAs[sched.Policy](KindPolicy, c.Policy, env); err != nil {
			return cfg, fmt.Errorf("spec: scheduling policy: %w", err)
		}
	}
	if !c.Alloc.None() {
		if ctl.Alloc, err = makeAs[sched.Allocator](KindAllocator, c.Alloc, env); err != nil {
			return cfg, fmt.Errorf("spec: allocator: %w", err)
		}
	}
	if !c.Detector.None() {
		if ctl.Detector, err = makeAs[hotcold.Detector](KindDetector, c.Detector, env); err != nil {
			return cfg, fmt.Errorf("spec: detector: %w", err)
		}
	}
	if c.Fault != nil && !c.Fault.None() {
		// The "none" model builds nil: no injector at all.
		if ctl.Fault, err = makeAs[fault.Model](KindFault, *c.Fault, env); err != nil {
			return cfg, fmt.Errorf("spec: fault model: %w", err)
		}
	}
	if !c.OS.Policy.None() {
		if cfg.OS.Policy, err = makeAs[osched.Policy](KindOSPolicy, c.OS.Policy, env); err != nil {
			return cfg, fmt.Errorf("spec: os policy: %w", err)
		}
	}
	return cfg, nil
}

// fromConfig describes a live configuration back into its serializable
// mirror, for CanonKey. Every component is reverse-mapped through the
// registry — a value of an unregistered type is an *UnknownComponentError,
// never a silently lossy description — and defaulted fields are normalized
// to their effective values (nil policy describes as "fifo", zero greediness
// as 2, …), so two configurations the stack would run identically describe
// identically.
//
// Runtime wiring (OnComplete, OS trace and capture hooks) is outside the
// description; callers keying caches must account for it separately if it
// can change behavior.
func fromConfig(cfg core.Config) (Config, error) {
	// Describe what runs: the runtime's own default fill-in, then the
	// normalizations it does not apply — core.New's seed, and knobs that
	// have no effect in this configuration.
	ctl := cfg.Controller
	ctl.WithDefaults()
	osCfg := cfg.OS
	osCfg.WithDefaults()
	out := Config{
		Geometry: Geometry{
			Channels:       ctl.Geometry.Channels,
			LUNsPerChannel: ctl.Geometry.LUNsPerChannel,
			BlocksPerLUN:   ctl.Geometry.BlocksPerLUN,
			PagesPerBlock:  ctl.Geometry.PagesPerBlock,
			PageSize:       ctl.Geometry.PageSize,
		},
		Features:      Features{Copyback: ctl.Features.Copyback, Interleaving: ctl.Features.Interleaving},
		Overprovision: ctl.Overprovision,
		GC:            GCSpec{Greediness: ctl.GCGreediness, Copyback: ctl.GCCopyback},
		OpenInterface: ctl.OpenInterface,
		WriteBuffer:   WriteBufferSpec{Pages: ctl.WriteBufferPages, Latency: Duration(ctl.WriteBufferLatency)},
		RAM:           RAMSpec{Bytes: ctl.RAMBytes, SafeBytes: ctl.SafeRAMBytes},
		BadBlocks:     BadBlockSpec{Fraction: ctl.BadBlockFraction, Seed: ctl.BadBlockSeed},
		OS:            OSSpec{QueueDepth: osCfg.QueueDepth},
		Seed:          cfg.Seed,
		SeriesBucket:  Duration(cfg.SeriesBucket),
		TraceCap:      cfg.TraceCap,
		LockBus:       cfg.LockBus,
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	if out.WriteBuffer.Pages == 0 {
		out.WriteBuffer.Latency = 0
	}
	mapping := MappingChoice{Scheme: ctl.Mapping, CMTEntries: ctl.CMTEntries, ReservedTransBlocks: ctl.ReservedTransBlocks}
	if mapping.Scheme != controller.MapDFTL {
		mapping.CMTEntries, mapping.ReservedTransBlocks = 0, 0
	}

	var err error
	if out.Timing, err = Describe(KindTiming, ctl.Timing); err != nil {
		return out, fmt.Errorf("spec: timing: %w", err)
	}
	if out.Mapping, err = Describe(KindMapping, mapping); err != nil {
		return out, fmt.Errorf("spec: mapping: %w", err)
	}
	if out.GC.Policy, err = Describe(KindGCPolicy, ctl.GCPolicy); err != nil {
		return out, fmt.Errorf("spec: gc policy: %w", err)
	}
	if out.WL, err = Describe(KindWL, ctl.WL); err != nil {
		return out, fmt.Errorf("spec: wear leveling: %w", err)
	}
	if out.Policy, err = Describe(KindPolicy, ctl.Policy); err != nil {
		return out, fmt.Errorf("spec: scheduling policy: %w", err)
	}
	if out.Alloc, err = Describe(KindAllocator, ctl.Alloc); err != nil {
		return out, fmt.Errorf("spec: allocator: %w", err)
	}
	if out.Detector, err = Describe(KindDetector, ctl.Detector); err != nil {
		return out, fmt.Errorf("spec: detector: %w", err)
	}
	if out.OS.Policy, err = Describe(KindOSPolicy, osCfg.Policy); err != nil {
		return out, fmt.Errorf("spec: os policy: %w", err)
	}
	if ctl.Fault != nil {
		ref, err := Describe(KindFault, ctl.Fault)
		if err != nil {
			return out, fmt.Errorf("spec: fault model: %w", err)
		}
		out.Fault = &ref
	}
	return out, nil
}

// CanonKey renders a configuration as a canonical string: the registry-
// described mirror, JSON-encoded (struct fields in declaration order, map
// keys sorted — deterministic across processes). Configurations holding an
// unregistered component are a typed error, which is the point: the
// reflective printer this replaces silently produced colliding keys for
// components configured through unexported state.
func CanonKey(cfg core.Config) (string, error) {
	cs, err := fromConfig(cfg)
	if err != nil {
		return "", err
	}
	data, err := json.Marshal(cs)
	if err != nil {
		return "", fmt.Errorf("spec: canonical encoding: %w", err)
	}
	return "spec1|" + string(data), nil
}
