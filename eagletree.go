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
// design-space explorations are repeatable. The experiment suite runs one
// simulation per variant of a parameter or policy and renders comparable
// tables, CSV and text charts.
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
	"context"
	"io"

	"eagletree/internal/controller"
	"eagletree/internal/core"
	"eagletree/internal/experiment"
	"eagletree/internal/fabric"
	"eagletree/internal/fault"
	"eagletree/internal/flash"
	"eagletree/internal/gc"
	"eagletree/internal/hotcold"
	"eagletree/internal/iface"
	"eagletree/internal/osched"
	"eagletree/internal/query"
	"eagletree/internal/resultstore"
	"eagletree/internal/sched"
	"eagletree/internal/sim"
	"eagletree/internal/snapshot"
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

// Duration units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Hardware layer types.
type (
	// Geometry is the SSD's physical shape: channels × LUNs × blocks × pages.
	Geometry = flash.Geometry
	// Timing holds per-operation flash chip latencies.
	Timing = flash.Timing
	// Features flags advanced chip commands (copyback, interleaving).
	Features = flash.Features
	// PPA is a physical page address.
	PPA = flash.PPA
)

// TimingSLC returns timings typical of SLC datasheets.
func TimingSLC() Timing { return flash.TimingSLC() }

// TimingMLC returns timings typical of MLC datasheets.
func TimingMLC() Timing { return flash.TimingMLC() }

// Block interface and open interface types.
type (
	// LPN is a logical page number.
	LPN = iface.LPN
	// Request is one IO traveling through the stack.
	Request = iface.Request
	// Tags is open-interface request metadata.
	Tags = iface.Tags
	// Priority is the scheduling weight carried by the priority tag.
	Priority = iface.Priority
	// Temperature is expected update frequency (hot/cold).
	Temperature = iface.Temperature
	// Message is anything exchanged on the open-interface bus.
	Message = iface.Message
	// PriorityHint assigns a priority to a thread's future IOs.
	PriorityHint = iface.PriorityHint
	// LocalityHint declares pages that share update-locality.
	LocalityHint = iface.LocalityHint
	// TemperatureHint declares an LPN range hot or cold.
	TemperatureHint = iface.TemperatureHint
)

// Request type, priority and temperature constants.
const (
	ReadIO  = iface.Read
	WriteIO = iface.Write
	TrimIO  = iface.Trim

	PriorityLow    = iface.PriorityLow
	PriorityNormal = iface.PriorityNormal
	PriorityHigh   = iface.PriorityHigh

	TempUnknown = iface.TempUnknown
	TempCold    = iface.TempCold
	TempHot     = iface.TempHot
)

// SSD controller configuration.
type (
	// ControllerConfig assembles the SSD controller.
	ControllerConfig = controller.Config
	// MappingScheme selects the FTL (page map in RAM, or DFTL).
	MappingScheme = controller.MappingScheme
)

// Mapping schemes.
const (
	MapPageRAM = controller.MapPageRAM
	MapDFTL    = controller.MapDFTL
)

// WLConfig configures wear leveling.
type WLConfig = wl.Config

// WLDefault returns the default wear-leveling configuration (static and
// dynamic enabled).
func WLDefault() WLConfig { return wl.DefaultConfig() }

// WLOff returns a wear-leveling configuration with both modes disabled.
func WLOff() WLConfig { return controller.WLOff() }

// GC victim-selection policies.
type (
	// GCPolicy selects which block garbage collection reclaims.
	GCPolicy = gc.VictimPolicy
	// GCGreedy picks the block with the fewest live pages.
	GCGreedy = gc.Greedy
	// GCCostBenefit weighs migration cost against reclaimed space and age.
	GCCostBenefit = gc.CostBenefit
	// GCRandom picks uniformly among non-full candidates (baseline).
	GCRandom = gc.Random
)

// Hot/cold detection.
type (
	// Detector classifies written pages hot or cold.
	Detector = hotcold.Detector
	// BloomDetector is the multiple-bloom-filter hot-data identifier
	// (Park & Du, MSST 2011).
	BloomDetector = hotcold.MBF
	// BloomDetectorConfig tunes the multi-bloom-filter detector.
	BloomDetectorConfig = hotcold.MBFConfig
	// NoDetector classifies nothing (always unknown).
	NoDetector = hotcold.None
)

// NewBloomDetector builds the multi-bloom-filter detector with the paper-ish
// default parameters.
func NewBloomDetector() *BloomDetector {
	return hotcold.NewMBF(hotcold.DefaultMBFConfig())
}

// Runtime fault injection. A FaultModel set on ControllerConfig.Fault is
// consulted on every data-region program and erase; the controller recovers
// gracefully — relocating failed writes, retiring grown-bad blocks and
// migrating their survivors — until retirement exhausts the free pool and
// the run fails with ErrDeviceWornOut. Injection is seeded and
// deterministic: (Config, Seed) still fully determines the run, and model
// state rides along in device snapshots.
type (
	// FaultModel decides, per flash operation, whether it fails.
	FaultModel = fault.Model
	// FaultOutcome is a model's verdict for one operation.
	FaultOutcome = fault.Outcome
	// RandomFaults fails operations with fixed per-op probabilities.
	RandomFaults = fault.Random
	// WearoutFaults fails operations with probability rising along an
	// endurance-derived curve of the block's erase count.
	WearoutFaults = fault.Wearout
	// ScheduledFault fires exactly one fault at an erase-count or
	// virtual-time threshold, for reproducible single-fault experiments.
	ScheduledFault = fault.At
	// Reliability aggregates a run's fault-recovery totals: retries,
	// relocations, erase failures, grown bad blocks.
	Reliability = controller.Reliability
)

// Fault outcomes.
const (
	FaultOK          = fault.OK
	FaultProgramFail = fault.ProgramFail
	FaultEraseFail   = fault.EraseFail
	FaultGrownBad    = fault.GrownBad
)

// ErrDeviceWornOut reports that runtime block retirement exhausted a LUN's
// free pool — the device can no longer absorb writes; test with errors.Is.
var ErrDeviceWornOut = controller.ErrDeviceWornOut

// NewRandomFaults builds a fixed-probability fault model: each program
// fails with pfail (escalating to a grown-bad block retirement with
// conditional probability pgrown), each erase fails — retiring the block —
// with efail. seed seeds the model's private RNG.
func NewRandomFaults(pfail, efail, pgrown float64, seed uint64) *RandomFaults {
	return fault.NewRandom(pfail, efail, pgrown, seed)
}

// NewWearoutFaults builds an endurance-curve fault model: erases fail with
// probability min(1, (eraseCount/endurance)^shape), programs with
// programFactor times that, escalating to grown-bad past the endurance
// limit.
func NewWearoutFaults(endurance int, shape, programFactor float64, seed uint64) *WearoutFaults {
	return fault.NewWearout(endurance, shape, programFactor, seed)
}

// SSD-side IO scheduling.
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
	// SSDDeadline serves overdue requests first (starvation guard).
	SSDDeadline = sched.Deadline
	// SSDFair serves IO sources in weighted round-robin.
	SSDFair = sched.Fair
	// Preference biases a priority policy between reads and writes.
	Preference = sched.Preference
	// InternalOrder places internal IOs (GC/WL/mapping) against application IOs.
	InternalOrder = sched.InternalOrder
	// Allocator decides which LUN a write lands on.
	Allocator = sched.Allocator
	// AllocRoundRobin rotates writes across LUNs.
	AllocRoundRobin = sched.RoundRobin
	// AllocLeastLoaded picks the soonest-free allocatable LUN.
	AllocLeastLoaded = sched.LeastLoaded
	// AllocStriped statically maps LPN mod N to a LUN.
	AllocStriped = sched.Striped
	// PatternDetector classifies per-thread logical address patterns
	// (sequential vs random), §2.2's "record and exploit information about
	// logical address patterns".
	PatternDetector = sched.PatternDetector
	// AllocPatternAware stripes detected sequential runs across LUNs so a
	// later sequential scan fans out; random writes go least-loaded.
	AllocPatternAware = sched.PatternAware
)

// Scheduling preference and internal-order constants.
const (
	PreferNone    = sched.PreferNone
	PreferReads   = sched.PreferReads
	PreferWrites  = sched.PreferWrites
	InternalEqual = sched.InternalEqual
	InternalLast  = sched.InternalLast
	InternalFirst = sched.InternalFirst
)

// OS layer.
type (
	// OSConfig configures the operating-system scheduler.
	OSConfig = osched.Config
	// OSPolicy orders the OS pending pool.
	OSPolicy = osched.Policy
	// OSFIFO issues in submission order (the default).
	OSFIFO = osched.FIFO
	// OSPrio issues by priority tag, optionally reads-first.
	OSPrio = osched.Prio
	// OSCFQ round-robins threads with a quantum.
	OSCFQ = osched.CFQ
	// OSElevator serves in ascending-LPN sweeps (C-SCAN). Its HDD rationale
	// — minimizing seeks — does not exist on an SSD; it is included to show
	// that contract breaking.
	OSElevator = osched.Elevator
)

// Workload layer.
type (
	// Thread is a simulated application: Init plus a completion callback.
	Thread = workload.Thread
	// Ctx is a thread's window onto the stack.
	Ctx = workload.Ctx
	// Handle names a registered thread for dependencies.
	Handle = workload.Handle
	// SequentialWriter writes a range in order (device preparation).
	SequentialWriter = workload.SequentialWriter
	// SequentialReader reads a range in order.
	SequentialReader = workload.SequentialReader
	// RandomWriter writes uniformly over a range (aging, overwrite stress).
	RandomWriter = workload.RandomWriter
	// RandomReader reads uniformly over a range.
	RandomReader = workload.RandomReader
	// ZipfWriter writes with Zipf-skewed popularity (hot/cold workloads).
	ZipfWriter = workload.ZipfWriter
	// ReadWriteMix interleaves uniform reads and writes.
	ReadWriteMix = workload.ReadWriteMix
	// Trimmer trims a range.
	Trimmer = workload.Trimmer
	// FileSystem models file create/overwrite/delete over extents.
	FileSystem = workload.FileSystem
	// GraceJoin follows the IO pattern of a Grace hash join.
	GraceJoin = workload.GraceJoin
	// LSMInsert follows the IO pattern of LSM-tree insertions.
	LSMInsert = workload.LSMInsert
	// ExternalSort follows the IO pattern of external merge sort.
	ExternalSort = workload.ExternalSort
	// FuncThread wraps plain functions as a thread (barriers, custom logic).
	FuncThread = workload.Func
	// Replay replays a captured or converted block trace through the stack.
	Replay = workload.Replay
	// ReplayMode paces a replay: closed-loop, open-loop or dependent.
	ReplayMode = workload.ReplayMode
)

// Replay pacing modes.
const (
	ReplayClosedLoop = workload.ReplayClosedLoop
	ReplayOpenLoop   = workload.ReplayOpenLoop
	ReplayDependent  = workload.ReplayDependent
)

// ParseReplayMode maps the command-line spellings onto replay modes.
func ParseReplayMode(s string) (ReplayMode, error) { return workload.ParseReplayMode(s) }

// Block-trace capture and codecs.
type (
	// IOTrace is a canonical application-level block trace.
	IOTrace = trace.Trace
	// TraceRecord is one traced IO.
	TraceRecord = trace.Record
	// TraceCapture records the app-level IO stream of a live run; wire it
	// to Config.OS.Capture.
	TraceCapture = trace.Capture
	// TraceMismatchError reports a replayed trace whose content hash does
	// not match the provenance its spec pinned (IOTrace.Hash).
	TraceMismatchError = trace.MismatchError
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
	// WearSummary describes the erase-count distribution.
	WearSummary = core.WearSummary
)

// New assembles a simulation stack from the configuration.
func New(cfg Config) (*Stack, error) { return core.New(cfg) }

// Device-state snapshots: instant aged-device preparation.
type (
	// DeviceState is the complete serialized state of a quiescent stack:
	// flash contents and wear, FTL mapping tables (CMT included), free
	// lists, GC/WL counters, the virtual clock and thread/RNG origins.
	DeviceState = snapshot.DeviceState
)

// RestoreStack builds a stack from the configuration and the saved device
// state. Threads registered afterwards continue the saved run exactly, so a
// restored run is bit-identical to one that prepared the device in-process.
func RestoreStack(cfg Config, st *DeviceState) (*Stack, error) { return core.Restore(cfg, st) }

// WriteStateFile saves a device state to path in the versioned binary
// snapshot format (atomic write, CRC-protected).
func WriteStateFile(path string, st *DeviceState) error { return snapshot.WriteFile(path, st) }

// ReadStateFile loads a device state saved by WriteStateFile.
func ReadStateFile(path string) (*DeviceState, error) { return snapshot.ReadFile(path) }

// Experiment suite.
type (
	// Experiment is a template: a parameter, a strategy to vary it, and a
	// workload.
	Experiment = experiment.Definition
	// Variant is one setting of the varied parameter.
	Variant = experiment.Variant
	// Results collects per-variant outcomes.
	Results = experiment.Results
	// ResultRow is one variant's outcome.
	ResultRow = experiment.Row
	// Metric extracts one scalar from a report.
	Metric = experiment.Metric
	// PrepareSpec declares device preparation (fill + age) so the runner
	// can snapshot-cache prepared state across variants.
	PrepareSpec = experiment.PrepareSpec
	// ExperimentOptions tunes experiment execution (workers, state cache,
	// event observer).
	ExperimentOptions = experiment.Options
	// StateCache deduplicates device preparation across variants and runs.
	StateCache = experiment.StateCache
)

// NewStateCache returns a snapshot cache for experiment preparation,
// disk-backed under dir when non-empty.
func NewStateCache(dir string) *StateCache { return experiment.NewStateCache(dir) }

// Context-aware streaming experiment execution. NewRunner(opts).Run(ctx, def)
// is the first-class run API: it honors cancellation and deadlines mid-sweep
// (workers drain deterministically; partial Results carry the completed row
// prefix alongside a typed ErrRunCanceled) and streams typed events — variant
// lifecycle, snapshot-cache provenance, timings — to an optional Observer.
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
	// RunCanceledError is the typed error of a canceled run: completed
	// prefix length, total, and the context's cause.
	RunCanceledError = experiment.CanceledError
	// ExperimentVariantError is the typed error of a variant whose
	// execution panicked: the recovered value plus a stack trace. The
	// runner isolates the crash — remaining variants still complete.
	ExperimentVariantError = experiment.VariantError
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

// ErrRunCanceled reports an experiment run cut short by its context; test
// with errors.Is. The concrete error is a *RunCanceledError.
var ErrRunCanceled = experiment.ErrCanceled

// NewRunner returns the context-aware experiment runner.
//
//	runner := eagletree.NewRunner(eagletree.ExperimentOptions{Observer: obs})
//	res, err := runner.Run(ctx, def)
func NewRunner(opts ExperimentOptions) *ExperimentRunner { return experiment.New(opts) }

// ChanExperimentObserver adapts a channel to ExperimentObserver: every event
// is sent (blocking) to ch. The runner never closes ch.
func ChanExperimentObserver(ch chan<- ExperimentEvent) ExperimentObserver {
	return experiment.ChanObserver(ch)
}

// Standard chartable metrics.
var (
	MetricThroughput = experiment.MetricThroughput
	MetricReadMean   = experiment.MetricReadMean
	MetricWriteMean  = experiment.MetricWriteMean
	MetricReadP99    = experiment.MetricReadP99
	MetricWriteP99   = experiment.MetricWriteP99
	MetricReadStd    = experiment.MetricReadStd
	MetricWriteStd   = experiment.MetricWriteStd
	MetricWA         = experiment.MetricWA
	MetricGCPages    = experiment.MetricGCPages
	MetricWearSpread = experiment.MetricWearSpread
)

// Declarative experiment specs: experiments as data, not code. A spec names
// every pluggable component through the registry, so a JSON document fully
// describes a run — base configuration, device preparation, workload threads
// and a variant grid — and new design-space points need no recompile.
type (
	// ExperimentSpec is a complete serializable experiment document.
	ExperimentSpec = spec.Experiment
	// SpecConfig is the serializable mirror of Config (components by name).
	SpecConfig = spec.Config
	// SpecVariant is one point of a spec's sweep grid.
	SpecVariant = spec.Variant
	// SpecAxis is one dimension of a spec's grid form: the document declares
	// axes and the runner cross-products them into the variant list.
	SpecAxis = spec.Axis
	// SpecThread declares one workload thread by registered type name.
	SpecThread = spec.Thread
	// SpecPrep declares device preparation (fill + age) in a spec.
	SpecPrep = spec.Prep
	// SpecRef names a registered component, optionally with parameters.
	SpecRef = spec.Ref
	// SpecEnv supplies the variables spec workload expressions resolve
	// against (n, ppb, qd, f, i).
	SpecEnv = spec.Env
	// SpecKind partitions the component registry (policies, allocators, …).
	SpecKind = spec.Kind
	// SpecComponent is one registered named factory with typed parameters.
	SpecComponent = spec.Component
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
	SpecKindOSPolicy  = spec.KindOSPolicy
	SpecKindThread    = spec.KindThread
)

// DecodeExperimentSpec parses a versioned spec document; unknown fields,
// wrong versions and truncation are typed errors.
func DecodeExperimentSpec(data []byte) (ExperimentSpec, error) { return spec.Decode(data) }

// EncodeExperimentSpec renders a spec document in its canonical JSON form.
func EncodeExperimentSpec(e ExperimentSpec) ([]byte, error) { return spec.Encode(e) }

// ReadExperimentSpec loads and decodes a spec file.
func ReadExperimentSpec(path string) (ExperimentSpec, error) { return spec.ReadFile(path) }

// WriteExperimentSpec encodes and writes a spec file.
func WriteExperimentSpec(path string, e ExperimentSpec) error { return spec.WriteFile(path, e) }

// ExperimentFromSpec compiles a spec document into a runnable Experiment,
// validating every component name, parameter and expression.
func ExperimentFromSpec(e ExperimentSpec) (Experiment, error) { return experiment.FromSpec(e) }

// ConfigSpecOf describes a live configuration as a spec, with every
// component reverse-mapped through the registry; configurations holding
// unregistered component types are a typed error.
func ConfigSpecOf(cfg Config) (SpecConfig, error) { return spec.FromConfig(cfg) }

// MakeSpecThread resolves one spec thread declaration against an
// environment (n, ppb, qd, f, i) into a live workload thread.
func MakeSpecThread(t SpecThread, env SpecEnv) (Thread, error) { return spec.MakeThread(t, env) }

// RegisterSpecRun registers a single-run spec (the base configuration with
// one variant's preparation and workload) onto a live stack in the in-stack
// barrier flow — preparation threads, a measurement barrier, then the
// measured threads, in the same order the flag-driven CLI registers them.
func RegisterSpecRun(doc ExperimentSpec, v SpecVariant, s *Stack) error {
	return experiment.RegisterRun(doc, v, s)
}

// RegisterSpecComponent adds a named component factory to the registry —
// the hook for applications to make their own policies, detectors or thread
// types spec-addressable (and snapshot-cache keyable).
func RegisterSpecComponent(c SpecComponent) { spec.Register(c) }

// SpecCatalogue returns the registered components of one kind, in
// registration order, for documentation and listings.
func SpecCatalogue(kind SpecKind) []*SpecComponent { return spec.Catalogue(kind) }

// SpecMarkdown renders the full component catalogue — including components
// the application registered — as the SPEC.md reference page; `eagletree
// doc` prints exactly this.
func SpecMarkdown() string { return spec.Markdown() }

// SuiteSpecs returns the predefined E1–E14 experiments as spec data: the
// checked-in specs/*.json documents, scaled up when full is set.
func SuiteSpecs(full bool) []ExperimentSpec {
	if full {
		return experiment.SuiteSpecs(experiment.Full)
	}
	return experiment.SuiteSpecs(experiment.Small)
}

// Distributed sweep fabric: shard a spec document's variant grid across
// worker processes and merge the rows back byte-identically to a sequential
// run. See internal/fabric and DESIGN.md "Distributed sweep fabric".
type (
	// FabricOptions configures a distributed sweep coordinator.
	FabricOptions = fabric.Options
	// FabricWorkerOptions configures one worker session.
	FabricWorkerOptions = fabric.WorkerOptions
)

// RunDistributed executes a spec document's variant grid across worker
// processes — subprocesses, TCP connections, or supplied transports — and
// merges the rows deterministically by grid position.
func RunDistributed(ctx context.Context, doc ExperimentSpec, opts FabricOptions) (Results, error) {
	return fabric.Run(ctx, doc, opts)
}

// ServeWorker runs one sweep-fabric worker session over a byte stream until
// the coordinator shuts it down; `eagletree worker` is this over
// stdin/stdout or a TCP connection.
func ServeWorker(ctx context.Context, r io.Reader, w io.Writer, opts FabricWorkerOptions) error {
	return fabric.Serve(ctx, r, w, opts)
}

// Result store & relational query layer: every sweep row persisted with
// provenance (spec digest, seed, commit label), replicated across seeds with
// confidence intervals, and comparable across commits. See internal/resultstore,
// internal/query and DESIGN.md "Result store & query layer".
type (
	// ResultStore is an append-only directory of CRC-protected columnar
	// segments holding sweep result rows.
	ResultStore = resultstore.Store
	// StoredRow is one persisted sweep outcome: provenance plus the full
	// report, one value per registered result column.
	StoredRow = resultstore.Row
	// ResultSink is an ExperimentObserver that captures finished variants
	// as StoredRows, in grid order, for persistence.
	ResultSink = resultstore.Sink
	// ResultColumn describes one result-store column: name, kind, and which
	// direction is better (for regression verdicts).
	ResultColumn = resultstore.ColumnSpec
	// QueryTable is an ordered, typed, immutable relational table over
	// stored rows; every operator returns a new table deterministically.
	QueryTable = query.Table
	// QueryPredicate is one parsed -where filter clause.
	QueryPredicate = query.Predicate
	// QueryAgg is one parsed aggregate expression, e.g. mean(throughput_iops).
	QueryAgg = query.Agg
	// RegressionSummary totals a cross-commit diff: comparisons, regressions,
	// improvements, unchanged, unpaired.
	RegressionSummary = query.DiffSummary
)

// OpenResultStore opens (creating if absent) a result store directory, as
// `eagletree sweep -results DIR` and `eagletree results` do.
func OpenResultStore(dir string) (*ResultStore, error) { return resultstore.Open(dir) }

// NewResultSink returns an observer that captures a sweep's finished
// variants as StoredRows with provenance; attach it via ExperimentOptions
// (or MultiExperimentObserver) and call Flush to append the rows. A nil
// store captures without persisting.
func NewResultSink(store *ResultStore, doc ExperimentSpec, commit string) (*ResultSink, error) {
	return resultstore.NewSink(store, doc, commit)
}

// ResultColumns returns the full result-store column schema, in stored
// order.
func ResultColumns() []ResultColumn { return resultstore.Columns() }

// QueryFromRows lifts stored rows into a relational table, one row per
// StoredRow in the given order.
func QueryFromRows(rows []StoredRow) *QueryTable { return query.FromRows(rows) }

// DiffResults compares two stored sweeps by commit label, pairing rows on
// (experiment, variant position, label, seed) and testing per-seed deltas
// against their own 95% confidence interval; `eagletree results diff` prints
// exactly this table and summary.
func DiffResults(rows []StoredRow, a, b string, metrics []string) (*QueryTable, RegressionSummary, error) {
	return query.Diff(rows, a, b, metrics)
}

// MultiExperimentObserver fans runner events out to several observers in
// order — e.g. a progress printer plus a ResultSink.
func MultiExperimentObserver(obs ...ExperimentObserver) ExperimentObserver {
	return experiment.MultiObserver(obs...)
}

// DefaultConfig returns a mid-size SSD: 4 channels × 2 LUNs, 256 blocks per
// LUN of 64 pages (512 MiB raw at 4 KiB pages), SLC timings, page-map FTL,
// greedy GC, wear leveling on, FIFO scheduling, queue depth 32.
func DefaultConfig() Config {
	return Config{
		Controller: ControllerConfig{
			Geometry:      Geometry{Channels: 4, LUNsPerChannel: 2, BlocksPerLUN: 256, PagesPerBlock: 64, PageSize: 4096},
			Timing:        TimingSLC(),
			Overprovision: 0.1,
			GCGreediness:  2,
			WL:            WLDefault(),
		},
		OS:   OSConfig{QueueDepth: 32},
		Seed: 1,
	}
}

// SmallConfig returns a deliberately tiny SSD (2×2 LUNs, 64 blocks of 16
// pages) that reaches steady-state GC within seconds of real time — the
// right scale for tests and quick explorations.
func SmallConfig() Config {
	return Config{
		Controller: ControllerConfig{
			Geometry:      Geometry{Channels: 2, LUNsPerChannel: 2, BlocksPerLUN: 64, PagesPerBlock: 16, PageSize: 4096},
			Timing:        TimingSLC(),
			Overprovision: 0.15,
			GCGreediness:  2,
			WL:            WLOff(),
		},
		OS:   OSConfig{QueueDepth: 16},
		Seed: 1,
	}
}
