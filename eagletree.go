// Package eagletree is a discrete-event simulation framework for SSD-based
// algorithms, reproducing "EagleTree: Exploring the Design Space of SSD-Based
// Algorithms" (Dayan, Svendsen, Bjørling, Bonnet, Bouganim — VLDB 2013).
//
// EagleTree simulates the complete IO stack in virtual time, bottom-up:
//
//   - the flash hardware array (channels × LUNs, SLC/MLC timings, advanced
//     commands: copyback and channel interleaving),
//   - the SSD controller (page-map or DFTL mapping, garbage collection, wear
//     leveling, a modular IO scheduler, RAM accounting, write buffering),
//   - the operating-system IO scheduler (pending pools, queue depth, FIFO /
//     priority / CFQ policies),
//   - and an application thread framework (init/callback threads, workload
//     generators, dependencies for device preparation).
//
// Beyond the block-device contract, the OS and SSD can converse over an
// extensible message bus — the open interface — carrying priorities,
// update-locality groups and data temperatures.
//
// A (Config, Seed) pair fully determines the simulation trace, so large
// design-space explorations are repeatable.
//
// This package is the surface a program outside the module builds on: it
// assembles and runs a Stack, runs experiments and spec documents, reads
// Reports, and plugs in its own SSDPolicy, OSPolicy, Detector or Thread —
// in Go, or by name in a spec document after RegisterSpecComponent. Every
// other component (GC policies, allocators, fault models, wear leveling,
// timings) is selected by name in a spec document; SPEC.md lists them.
//
// Quickstart:
//
//	cfg := eagletree.DefaultConfig()
//	s, err := eagletree.New(cfg)
//	if err != nil { ... }
//	n := int64(s.LogicalPages())
//	prep := s.Add(&eagletree.SequentialWriter{From: 0, Count: n, Depth: 32})
//	barrier := s.AddBarrier(prep)
//	s.Add(&eagletree.RandomWriter{From: 0, Space: n, Count: n, Depth: 32}, barrier)
//	s.Run()
//	fmt.Println(s.Report())
package eagletree

import (
	"eagletree/internal/controller"
	"eagletree/internal/core"
	"eagletree/internal/experiment"
	"eagletree/internal/flash"
	"eagletree/internal/hotcold"
	"eagletree/internal/iface"
	"eagletree/internal/osched"
	"eagletree/internal/sched"
	"eagletree/internal/sim"
	"eagletree/internal/spec"
	"eagletree/internal/trace"
	"eagletree/internal/wl"
	"eagletree/internal/workload"
)

// Virtual time. All latencies and timestamps are virtual nanoseconds.
type (
	// Time is a virtual instant (nanoseconds since simulation start).
	Time = sim.Time
	// Duration is a virtual time span.
	Duration = sim.Duration
)

// Millisecond is one virtual millisecond.
const Millisecond = sim.Millisecond

// Hardware layer types.
type (
	// Geometry is the SSD's physical shape: channels × LUNs × blocks × pages.
	Geometry = flash.Geometry
	// Features flags advanced chip commands (copyback, interleaving).
	Features = flash.Features
)

// Block interface and open interface types.
type (
	// LPN is a logical page number.
	LPN = iface.LPN
	// Request is one IO traveling through the stack.
	Request = iface.Request
	// Tags is open-interface request metadata.
	Tags = iface.Tags
	// Temperature is expected update frequency (hot/cold).
	Temperature = iface.Temperature
	// Message is anything exchanged on the open-interface bus.
	Message = iface.Message
	// PriorityHint assigns a priority to a thread's future IOs.
	PriorityHint = iface.PriorityHint
)

// Request type, priority and temperature constants.
const (
	ReadIO  = iface.Read
	WriteIO = iface.Write

	PriorityHigh = iface.PriorityHigh

	TempUnknown = iface.TempUnknown
	TempCold    = iface.TempCold
	TempHot     = iface.TempHot
)

// Extension points a program implements in Go and sets on Config (or
// registers by name with RegisterSpecComponent).
type (
	// SSDPolicy orders the controller's single IO queue. To write one:
	// queue what Push and PushBlocked hand over, and in PopClassed evaluate
	// candidates with g.Evaluate in the policy's order, removing and
	// returning the first it accepts (nil when it accepts none). The class
	// Evaluate returns with a refusal may be ignored — it only lets a policy
	// skip requests that provably still cannot run; a policy that ignores it
	// implements WakeRequest as a no-op. A blocked request (PushBlocked until
	// Unblock) keeps its arrival position and is refused by Evaluate.
	SSDPolicy = sched.Policy
	// SSDGate is the controller as an SSDPolicy sees it during a pop: the
	// one place that knows whether a request can start now.
	SSDGate = sched.Gate
	// SSDFIFO dispatches in arrival order.
	SSDFIFO = sched.FIFO
	// SSDPriority scores requests by tag, type preference and source.
	SSDPriority = sched.Priority
	// OSPolicy orders the OS pending pool (Config.OS.Policy).
	OSPolicy = osched.Policy
	// Detector classifies written pages hot or cold
	// (Config.Controller.Detector).
	Detector = hotcold.Detector
)

// Workload layer.
type (
	// Thread is a simulated application: Init plus a completion callback.
	Thread = workload.Thread
	// Ctx is a thread's window onto the stack.
	Ctx = workload.Ctx
	// Handle names a registered thread for dependencies.
	Handle = workload.Handle
	// FuncThread wraps plain functions as a thread (barriers, custom logic).
	FuncThread = workload.Func
	// SequentialWriter writes a range in order (device preparation).
	SequentialWriter = workload.SequentialWriter
	// RandomWriter writes uniformly over a range (aging, overwrite stress).
	RandomWriter = workload.RandomWriter
	// RandomReader reads uniformly over a range.
	RandomReader = workload.RandomReader
	// ZipfWriter writes with Zipf-skewed popularity (hot/cold workloads).
	ZipfWriter = workload.ZipfWriter
	// FileSystem models file create/overwrite/delete over extents.
	FileSystem = workload.FileSystem
	// GraceJoin follows the IO pattern of a Grace hash join.
	GraceJoin = workload.GraceJoin
	// LSMInsert follows the IO pattern of LSM-tree insertions.
	LSMInsert = workload.LSMInsert
	// ExternalSort follows the IO pattern of external merge sort.
	ExternalSort = workload.ExternalSort
	// Replay replays a captured or converted block trace through the stack.
	Replay = workload.Replay
)

// Replay pacing modes.
const (
	ReplayClosedLoop = workload.ReplayClosedLoop
	ReplayOpenLoop   = workload.ReplayOpenLoop
	ReplayDependent  = workload.ReplayDependent
)

// Block-trace capture and codecs.
type (
	// IOTrace is a canonical application-level block trace.
	IOTrace = trace.Trace
	// TraceCapture records the app-level IO stream of a live run; wire it
	// to Config.OS.Capture.
	TraceCapture = trace.Capture
)

// NewTraceCapture returns an active capture with origin 0.
func NewTraceCapture() *TraceCapture { return trace.NewCapture() }

// WriteTraceFile encodes a trace to path (binary when it ends in .etb, the
// versioned text form otherwise).
func WriteTraceFile(path string, t *IOTrace) error { return trace.WriteFile(path, t) }

// ReadTraceFile decodes a trace from path, sniffing text vs binary.
func ReadTraceFile(path string) (*IOTrace, error) { return trace.ReadFile(path) }

// Stack assembly and reports.
type (
	// Config configures every layer of the stack.
	Config = core.Config
	// Stack is one assembled simulation.
	Stack = core.Stack
	// Report is the metric snapshot of a measured run.
	Report = core.Report
	// LatencySummary condenses one latency distribution.
	LatencySummary = core.LatencySummary
)

// New assembles a simulation stack from the configuration.
func New(cfg Config) (*Stack, error) { return core.New(cfg) }

// Experiments: one simulation per variant of a parameter or policy, with
// comparable tables and text charts.
type (
	// Experiment is a template: a parameter, a strategy to vary it, and a
	// workload.
	Experiment = experiment.Definition
	// Variant is one setting of the varied parameter.
	Variant = experiment.Variant
	// PrepareSpec declares device preparation (fill + age) so the runner
	// can snapshot-cache prepared state across variants.
	PrepareSpec = experiment.PrepareSpec
	// Results collects per-variant outcomes.
	Results = experiment.Results
	// ResultRow is one variant's outcome.
	ResultRow = experiment.Row
	// Metric extracts one scalar from a report.
	Metric = experiment.Metric
	// ExperimentOptions tunes experiment execution (workers, state cache,
	// event observer).
	ExperimentOptions = experiment.Options
	// StateCache deduplicates device preparation across variants and runs.
	StateCache = experiment.StateCache
)

// Chartable metrics.
var (
	MetricReadMean = experiment.MetricReadMean
	MetricWriteP99 = experiment.MetricWriteP99
	MetricWA       = experiment.MetricWA
)

// NewStateCache returns a snapshot cache for experiment preparation,
// disk-backed under dir when non-empty.
func NewStateCache(dir string) *StateCache { return experiment.NewStateCache(dir) }

// Context-aware streaming experiment execution. NewRunner(opts).Run(ctx, def)
// honors cancellation and deadlines mid-sweep (partial Results carry the
// completed row prefix) and streams typed events — variant lifecycle,
// snapshot-cache provenance, timings — to an optional observer.
type (
	// ExperimentRunner executes experiments under a context with an event
	// stream; results are bit-identical to a sequential run at any worker
	// count.
	ExperimentRunner = experiment.Runner
	// ExperimentEvent is one observation of a running experiment.
	ExperimentEvent = experiment.Event
	// ExperimentEventKind discriminates runner events.
	ExperimentEventKind = experiment.EventKind
	// ExperimentObserver receives runner events (serialized calls).
	ExperimentObserver = experiment.Observer
	// ExperimentObserverFunc adapts a function to ExperimentObserver.
	ExperimentObserverFunc = experiment.ObserverFunc
)

// Runner event kinds: every variant gets exactly one VariantQueued and one
// of VariantDone/VariantFailed/VariantCanceled, declared preparation reports
// its cache provenance, and the run closes with one ExperimentDone.
const (
	EventVariantQueued   = experiment.EventVariantQueued
	EventPrepareHit      = experiment.EventPrepareHit
	EventPrepareMiss     = experiment.EventPrepareMiss
	EventVariantDone     = experiment.EventVariantDone
	EventVariantFailed   = experiment.EventVariantFailed
	EventVariantCanceled = experiment.EventVariantCanceled
	EventExperimentDone  = experiment.EventExperimentDone
)

// NewRunner returns the context-aware experiment runner.
//
//	runner := eagletree.NewRunner(eagletree.ExperimentOptions{Observer: obs})
//	res, err := runner.Run(ctx, def)
func NewRunner(opts ExperimentOptions) *ExperimentRunner { return experiment.New(opts) }

// Declarative experiment specs: experiments as data, not code. A spec names
// every pluggable component through the registry, so a JSON document fully
// describes a run — base configuration, device preparation, workload threads
// and a variant grid — and new design-space points need no recompile.
type (
	// ExperimentSpec is a complete serializable experiment document.
	ExperimentSpec = spec.Experiment
	// SpecKind partitions the component registry (policies, allocators, …).
	SpecKind = spec.Kind
	// SpecComponent is one registered named factory with typed parameters:
	// Make builds the component from its parameters, Describe maps a live
	// value back to them (which is what keys cached device preparation).
	SpecComponent = spec.Component
	// SpecParam declares one typed parameter of a component.
	SpecParam = spec.Param
	// SpecParamType is the declared type of a SpecParam.
	SpecParamType = spec.ParamType
	// SpecParams is a component factory's typed view of its parameters;
	// access errors accumulate and fail the build.
	SpecParams = spec.Params
)

// Component registry kinds.
const (
	SpecKindPolicy    = spec.KindPolicy
	SpecKindAllocator = spec.KindAllocator
	SpecKindGCPolicy  = spec.KindGCPolicy
	SpecKindWL        = spec.KindWL
	SpecKindDetector  = spec.KindDetector
	SpecKindMapping   = spec.KindMapping
	SpecKindTiming    = spec.KindTiming
	SpecKindFault     = spec.KindFault
	SpecKindOSPolicy  = spec.KindOSPolicy
	SpecKindThread    = spec.KindThread
)

// Component parameter types.
const (
	SpecTInt       = spec.TInt
	SpecTExpr      = spec.TExpr
	SpecTFloat     = spec.TFloat
	SpecTBool      = spec.TBool
	SpecTString    = spec.TString
	SpecTDuration  = spec.TDuration
	SpecTInts      = spec.TInts
	SpecTComponent = spec.TComponent
)

// DecodeExperimentSpec parses a versioned spec document; unknown fields,
// wrong versions and truncation are typed errors.
func DecodeExperimentSpec(data []byte) (ExperimentSpec, error) { return spec.Decode(data) }

// ExperimentFromSpec compiles a spec document into a runnable Experiment,
// validating every component name, parameter and expression.
func ExperimentFromSpec(e ExperimentSpec) (Experiment, error) { return experiment.FromSpec(e) }

// RegisterSpecComponent adds a named component factory to the registry —
// the hook for applications to make their own policies, detectors or thread
// types spec-addressable (and snapshot-cache keyable). Registering a (kind,
// name) pair twice panics.
func RegisterSpecComponent(c SpecComponent) { spec.Register(c) }

// SpecCatalogue returns the registered components of one kind, in
// registration order, for documentation and listings.
func SpecCatalogue(kind SpecKind) []*SpecComponent { return spec.Catalogue(kind) }

// DefaultConfig returns a mid-size SSD: 4 channels × 2 LUNs, 256 blocks per
// LUN of 64 pages (512 MiB raw at 4 KiB pages), SLC timings, page-map FTL,
// greedy GC, wear leveling on, FIFO scheduling, queue depth 32.
func DefaultConfig() Config {
	return Config{
		Controller: controller.Config{
			Geometry:      flash.Geometry{Channels: 4, LUNsPerChannel: 2, BlocksPerLUN: 256, PagesPerBlock: 64, PageSize: 4096},
			Timing:        flash.TimingSLC(),
			Overprovision: 0.1,
			GCGreediness:  2,
			WL:            wl.DefaultConfig(),
		},
		OS:   osched.Config{QueueDepth: 32},
		Seed: 1,
	}
}

// SmallConfig returns a deliberately tiny SSD (2×2 LUNs, 64 blocks of 16
// pages) that reaches steady-state GC within seconds of real time — the
// right scale for tests and quick explorations.
func SmallConfig() Config {
	return Config{
		Controller: controller.Config{
			Geometry:      flash.Geometry{Channels: 2, LUNsPerChannel: 2, BlocksPerLUN: 64, PagesPerBlock: 16, PageSize: 4096},
			Timing:        flash.TimingSLC(),
			Overprovision: 0.15,
			GCGreediness:  2,
			WL:            controller.WLOff(),
		},
		OS:   osched.Config{QueueDepth: 16},
		Seed: 1,
	}
}
