package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"eagletree/internal/core"
	"eagletree/internal/experiment"
	"eagletree/internal/ftl"
	"eagletree/internal/resultstore"
	"eagletree/internal/snapshot"
	"eagletree/internal/spec"
	"eagletree/internal/workload"
)

// counts accumulates the modelled components' own counters over every
// Stack.Run of a direct-drive pass. They are simulated quantities: exact, and
// identical between two commits unless the model itself changed.
type counts struct {
	events, appIOs, appWrites         uint64
	reads, writes, erases, copybacks  uint64
	gcPages, wlPages                  uint64
	cmtHits, cmtMisses, transIOs      uint64
	gcTriggered, wlScans              uint64
	retries, relocations, completions uint64
	maxPending                        int
	snapshotBytes                     int64
	runWall                           time.Duration // host time inside Stack.Run
}

// readCounts reads every counter a stack exposes through public accessors.
func readCounts(st *core.Stack) counts {
	var c counts
	c.events = st.Engine.Fired()
	ac := st.Controller.Array().Counters()
	c.reads, c.writes, c.erases, c.copybacks = ac.Reads, ac.Writes, ac.Erases, ac.Copybacks
	cc := st.Controller.Counters()
	c.appIOs = cc.AppReads + cc.AppWrites + cc.AppTrims
	c.appWrites = cc.AppWrites
	c.gcPages, c.wlPages = cc.GCMigratedPages, cc.WLMigratedPages
	if d, ok := st.Controller.Mapper().(*ftl.DFTL); ok {
		ds := d.Stats()
		c.cmtHits, c.cmtMisses = ds.Hits, ds.Misses
		c.transIOs = ds.TransReads + ds.TransWrites + ds.TransErases
	}
	for lun := 0; lun < st.Controller.BlockManager().LUNs(); lun++ {
		c.gcTriggered += st.Controller.GCCollector().Triggered(lun)
	}
	c.wlScans = st.Controller.Leveler().Scans()
	rel := st.Controller.Reliability()
	c.retries, c.relocations = rel.Retries, rel.Relocations
	c.completions = st.Stats.Completed()
	c.maxPending = st.OS.Stats().MaxPending
	return c
}

// run drives st.Run and adds what it moved to the totals.
func (c *counts) run(st *core.Stack) {
	before := readCounts(st)
	begin := time.Now()
	st.Run()
	c.runWall += time.Since(begin)
	after := readCounts(st)
	c.events += after.events - before.events
	c.appIOs += after.appIOs - before.appIOs
	c.appWrites += after.appWrites - before.appWrites
	c.reads += after.reads - before.reads
	c.writes += after.writes - before.writes
	c.erases += after.erases - before.erases
	c.copybacks += after.copybacks - before.copybacks
	c.gcPages += after.gcPages - before.gcPages
	c.wlPages += after.wlPages - before.wlPages
	c.cmtHits += after.cmtHits - before.cmtHits
	c.cmtMisses += after.cmtMisses - before.cmtMisses
	c.transIOs += after.transIOs - before.transIOs
	c.gcTriggered += after.gcTriggered - before.gcTriggered
	c.wlScans += after.wlScans - before.wlScans
	c.retries += after.retries - before.retries
	c.relocations += after.relocations - before.relocations
	c.completions += after.completions - before.completions
	if after.maxPending > c.maxPending {
		c.maxPending = after.maxPending
	}
}

func (c *counts) metrics(m map[string]float64) {
	m["sim.events_fired"] = float64(c.events)
	if c.appIOs > 0 {
		m["sim.events_per_io"] = float64(c.events) / float64(c.appIOs)
	}
	if c.events > 0 {
		m["sim.host_ns_per_event"] = float64(c.runWall) / float64(c.events)
	}
	m["flash.reads"] = float64(c.reads)
	m["flash.writes"] = float64(c.writes)
	m["flash.erases"] = float64(c.erases)
	m["flash.copybacks"] = float64(c.copybacks)
	m["controller.app_ios"] = float64(c.appIOs)
	m["controller.gc_migrated_pages"] = float64(c.gcPages)
	m["controller.wl_migrated_pages"] = float64(c.wlPages)
	if c.appWrites > 0 {
		m["controller.write_amp"] = float64(c.writes+c.copybacks) / float64(c.appWrites)
	}
	m["ftl.cmt_hits"] = float64(c.cmtHits)
	m["ftl.cmt_misses"] = float64(c.cmtMisses)
	m["ftl.trans_ios"] = float64(c.transIOs)
	m["gc.triggered"] = float64(c.gcTriggered)
	m["wl.scans"] = float64(c.wlScans)
	m["osched.max_pending"] = float64(c.maxPending)
	m["fault.retries"] = float64(c.retries)
	m["fault.relocations"] = float64(c.relocations)
	m["stats.completions"] = float64(c.completions)
	m["snapshot.bytes"] = float64(c.snapshotBytes)
}

// driver reproduces the Runner's flow through the layers' public calls, one
// span around each, so every second of a pass has a name taken from outside
// the program. What it computes is checked against the Runner's own rows: a
// trace of a different program supports nothing.
type driver struct {
	l      *spanLog
	c      *counts
	seed   uint64
	dir    string // prepared states live here as files; "" keeps them in memory
	states map[string][]byte
}

// prepConfig mirrors the Runner's split between knobs that shape the aged
// device and measurement-only knobs, which preparation pins to the document's
// base so that variants sweeping them share one prepared state.
func prepConfig(cfg, base core.Config) core.Config {
	p := cfg
	p.Controller.Policy = base.Controller.Policy
	p.Controller.Alloc = base.Controller.Alloc
	p.Controller.GCGreediness = base.Controller.GCGreediness
	p.Controller.OpenInterface = base.Controller.OpenInterface
	p.OS = base.OS
	p.LockBus = base.LockBus
	p.SeriesBucket = 0
	p.TraceCap = 0
	return p
}

// prepKey names a prepared state: the preparation and the canonical form of
// the configuration it ran under.
func prepKey(prep spec.Prep, pcfg core.Config) (string, error) {
	canon, err := spec.CanonKey(pcfg)
	return fmt.Sprintf("fill=%d age=%d/%d|%s", prep.FillDepth, prep.AgePasses, prep.AgeDepth, canon), err
}

// driveStates is where, under the run's scratch directory, the direct-drive
// flow of the warm workloads keeps its prepared states.
const driveStates = "drive-states"

func (d *driver) statePath(key string) string {
	return filepath.Join(d.dir, fmt.Sprintf("%x.state", sha(key)))
}

// prepared returns the encoded snapshot of the device aged under pcfg,
// building it on first use: core.New → fill and age threads → Stack.Run →
// Stack.Snapshot → snapshot.Encode → file.
func (d *driver) prepared(key string, pcfg core.Config, prep spec.Prep) ([]byte, error) {
	if data, ok := d.states[key]; ok {
		return data, nil
	}
	if d.dir != "" {
		end := d.l.begin("snapshot.file")
		data, err := os.ReadFile(d.statePath(key))
		end()
		if err == nil {
			end = d.l.begin("snapshot.verify")
			err = snapshot.Verify(data)
			end()
			if err == nil {
				d.states[key] = data
				d.c.snapshotBytes += int64(len(data))
				return data, nil
			}
		}
	}
	end := d.l.begin("core.new")
	st, err := core.New(pcfg)
	end()
	if err != nil {
		return nil, err
	}
	n := int64(st.LogicalPages())
	fill := st.Add(&workload.SequentialWriter{From: 0, Count: n, Depth: prep.FillDepth})
	if prep.AgePasses > 0 {
		depth := prep.AgeDepth
		if depth <= 0 {
			depth = prep.FillDepth
		}
		st.Add(&workload.RandomWriter{From: 0, Space: n, Count: prep.AgePasses * n, Depth: depth}, fill)
	}
	end = d.l.begin("core.prepare_run")
	d.c.run(st)
	end()
	if !st.Runner.Done() {
		return nil, fmt.Errorf("preparation left %d threads active", st.Runner.Active())
	}
	end = d.l.begin("core.snapshot")
	ds, err := st.Snapshot()
	end()
	if err != nil {
		return nil, err
	}
	end = d.l.begin("snapshot.encode")
	data := snapshot.Encode(ds)
	end()
	if d.dir != "" {
		end = d.l.begin("snapshot.file")
		err = snapshot.WriteRawFile(d.statePath(key), data)
		end()
		if err != nil {
			return nil, err
		}
	}
	d.states[key] = data
	d.c.snapshotBytes += int64(len(data))
	return data, nil
}

// doc drives one document: spec.ReadFile → Validate/ExpandVariants →
// per variant ConfigFor/Resolve → CanonKey → prepared state → Decode once →
// core.Restore → experiment.RegisterRun → Stack.Run → Stack.Report. sink,
// when set, receives each row as the Runner's observer would.
func (d *driver) doc(path string, sink *resultstore.Sink) (string, []experiment.Row, error) {
	end := d.l.begin("spec.decode")
	doc, err := spec.ReadFile(path)
	end()
	if err != nil {
		return "", nil, err
	}
	doc.Base.Seed = d.seed

	end = d.l.begin("spec.expand")
	err = doc.Validate()
	variants, verr := doc.ExpandVariants()
	end()
	if err != nil {
		return "", nil, err
	}
	if verr != nil {
		return "", nil, verr
	}
	if len(variants) == 0 {
		variants = []spec.Variant{{Label: "run"}}
	}
	// The measured phase registers the document's workload without its
	// preparation: the device arrives prepared.
	measured := doc
	measured.Prep = nil

	decoded := map[string]*snapshot.DeviceState{}
	rows := make([]experiment.Row, 0, len(variants))
	for i, v := range variants {
		endVariant := d.l.begin("variant")
		row, err := d.variant(doc, measured, v, decoded)
		endVariant()
		if err != nil {
			return "", nil, fmt.Errorf("%s variant %q: %w", doc.Name, v.Label, err)
		}
		rows = append(rows, row)
		if sink != nil {
			end = d.l.begin("resultstore.sink")
			sink.OnEvent(experiment.Event{Kind: experiment.EventVariantDone, Experiment: doc.Name,
				Variant: v.Label, Index: i, Variants: len(variants), Row: &row})
			end()
		}
	}
	return doc.Name, rows, nil
}

func (d *driver) variant(doc, measured spec.Experiment, v spec.Variant, decoded map[string]*snapshot.DeviceState) (experiment.Row, error) {
	row := experiment.Row{Label: v.Label, X: v.X}
	resolve := func(c spec.Config) (core.Config, error) {
		cfg, err := c.Resolve()
		if err == nil && doc.SeriesBucket > 0 {
			cfg.SeriesBucket = doc.SeriesBucket.D()
		}
		return cfg, err
	}
	end := d.l.begin("spec.expand")
	vcfg, err := doc.ConfigFor(v)
	var cfg, base core.Config
	if err == nil {
		cfg, err = resolve(vcfg)
	}
	if err == nil {
		base, err = resolve(doc.Base)
	}
	end()
	if err != nil {
		return row, err
	}

	prep := doc.Prep
	if v.Prep != nil {
		prep = v.Prep
	}
	var st *core.Stack
	if prep == nil || prep.FillDepth <= 0 {
		end = d.l.begin("core.new")
		st, err = core.New(cfg)
		end()
		if err != nil {
			return row, err
		}
	} else {
		pcfg := prepConfig(cfg, base)
		end = d.l.begin("spec.canonkey")
		key, err := prepKey(*prep, pcfg)
		end()
		if err != nil {
			return row, err
		}
		ds, ok := decoded[key]
		if !ok {
			data, err := d.prepared(key, pcfg, *prep)
			if err != nil {
				return row, err
			}
			end = d.l.begin("snapshot.decode")
			ds, err = snapshot.Decode(data)
			end()
			if err != nil {
				return row, err
			}
			decoded[key] = ds
		}
		end = d.l.begin("core.restore")
		st, err = core.Restore(cfg, ds)
		if err == nil {
			st.MarkMeasurement()
		}
		end()
		if err != nil {
			return row, err
		}
	}

	vv := v
	vv.Prep = nil
	end = d.l.begin("experiment.register")
	err = experiment.RegisterRun(measured, vv, st)
	end()
	if err != nil {
		return row, err
	}
	end = d.l.begin("core.measure_run")
	d.c.run(st)
	end()
	if !st.Runner.Done() {
		return row, fmt.Errorf("%d threads never finished", st.Runner.Active())
	}
	end = d.l.begin("core.report")
	row.Report = st.Report()
	if ts := st.Stats.Series(); ts != nil {
		row.Timeline = ts.Sparkline()
	}
	end()
	return row, nil
}
