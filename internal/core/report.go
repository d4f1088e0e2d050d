package core

import (
	"fmt"
	"math"
	"strings"

	"eagletree/internal/iface"
	"eagletree/internal/sim"
)

// LatencySummary condenses one latency distribution for reports.
type LatencySummary struct {
	Count uint64
	Mean  sim.Duration
	Std   sim.Duration
	P99   sim.Duration
	Max   sim.Duration
}

func (l LatencySummary) String() string {
	return fmt.Sprintf("n=%-8d mean=%-12v std=%-12v p99=%-12v max=%v",
		l.Count, l.Mean, l.Std, l.P99, l.Max)
}

// WearSummary describes the erase-count distribution over data blocks — the
// wear-leveling experiments' primary metric.
type WearSummary struct {
	MinErase  int
	MaxErase  int
	MeanErase float64
	StdErase  float64
	// PastEndurance counts blocks whose erase count exceeds the chip's
	// nominal endurance limit. The simulator reports rather than retires
	// them (real controllers would).
	PastEndurance int
	// BadBlocks counts retired (factory or injected) data blocks.
	BadBlocks int
}

// Spread returns max-min, the simplest imbalance measure.
func (w WearSummary) Spread() int { return w.MaxErase - w.MinErase }

// Report is the metric snapshot of one measured run.
type Report struct {
	// Duration is virtual time elapsed since the measurement epoch.
	Duration sim.Duration
	// Throughput is application IOs completed per simulated second.
	Throughput float64

	ReadLatency  LatencySummary
	WriteLatency LatencySummary

	// Internal interference metrics.
	GCMigratedPages    uint64
	GCErases           uint64
	WLMigratedPages    uint64
	TransReads         uint64 // DFTL translation reads (measurement window)
	TransWrites        uint64
	WriteAmplification float64

	Wear WearSummary

	// Reliability accounting under fault injection (measurement window);
	// all zero when no fault model is configured.
	Retries        uint64
	Relocations    uint64
	EraseFailures  uint64
	GrownBadBlocks uint64
	// EffectiveOP is the over-provisioning fraction still standing at report
	// time: usable data pages beyond the logical capacity, as a fraction of
	// the logical capacity. Runtime block retirement shrinks it.
	EffectiveOP float64

	// OS-level queue pressure.
	MaxPendingOS int
	MaxInFlight  int
}

// Report computes the metric snapshot since the last MarkMeasurement (or
// since the start if measurement was never marked).
func (s *Stack) Report() Report {
	now := s.Engine.Now()
	r := Report{
		Duration:   now.Sub(s.Stats.Start()),
		Throughput: s.Stats.Throughput(now),
	}
	rd := s.Stats.Latency(iface.SourceApp, iface.Read)
	r.ReadLatency = LatencySummary{Count: rd.Count(), Mean: rd.Mean(), Std: rd.Std(), P99: rd.Percentile(0.99), Max: rd.Max()}
	wr := s.Stats.Latency(iface.SourceApp, iface.Write)
	r.WriteLatency = LatencySummary{Count: wr.Count(), Mean: wr.Mean(), Std: wr.Std(), P99: wr.Percentile(0.99), Max: wr.Max()}

	cc := s.Controller.Counters()
	r.GCMigratedPages = cc.GCMigratedPages - s.baseController.GCMigratedPages
	r.GCErases = cc.GCErases - s.baseController.GCErases
	r.WLMigratedPages = cc.WLMigratedPages - s.baseController.WLMigratedPages

	ac := s.Controller.Array().Counters()
	flashWrites := (ac.Writes - s.baseArray.writes) + (ac.Copybacks - s.baseArray.copybacks)
	appWrites := cc.AppWrites - s.baseController.AppWrites
	if appWrites > 0 {
		r.WriteAmplification = float64(flashWrites) / float64(appWrites)
	}

	mr := s.Stats.Latency(iface.SourceMap, iface.Read)
	mw := s.Stats.Latency(iface.SourceMap, iface.Write)
	r.TransReads = mr.Count()
	r.TransWrites = mw.Count()

	rel := s.Controller.Reliability()
	r.Retries = rel.Retries - s.baseReliability.Retries
	r.Relocations = rel.Relocations - s.baseReliability.Relocations
	r.EraseFailures = rel.EraseFailures - s.baseReliability.EraseFailures
	r.GrownBadBlocks = rel.GrownBadBlocks - s.baseReliability.GrownBadBlocks
	if logical := s.Controller.LogicalPages(); logical > 0 {
		usable := s.Controller.BlockManager().DataPages()
		r.EffectiveOP = float64(usable-logical) / float64(logical)
	}

	r.Wear = s.wearSummary()
	osStats := s.OS.Stats()
	r.MaxPendingOS = osStats.MaxPending
	r.MaxInFlight = osStats.MaxInFlight
	return r
}

func (s *Stack) wearSummary() WearSummary {
	bm := s.Controller.BlockManager()
	limit := s.cfg.Controller.Timing.EnduranceLimit
	var (
		n          int
		sum, sumSq float64
		minE, maxE int
		past, bad  int
		first      = true
	)
	cols, perLUN := bm.Columns(), s.Controller.Array().Geometry().BlocksPerLUN
	for lun := 0; lun < bm.LUNs(); lun++ {
		for i := lun*perLUN + bm.ReservedTrans(); i < (lun+1)*perLUN; i++ {
			if cols.Bad[i] {
				bad++
				continue
			}
			ec := int(cols.EraseCount[i])
			if first || ec < minE {
				minE = ec
			}
			if first || ec > maxE {
				maxE = ec
			}
			first = false
			n++
			sum += float64(ec)
			sumSq += float64(ec) * float64(ec)
			if limit > 0 && ec > limit {
				past++
			}
		}
	}
	if n == 0 {
		return WearSummary{BadBlocks: bad}
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return WearSummary{
		MinErase: minE, MaxErase: maxE, MeanErase: mean, StdErase: math.Sqrt(variance),
		PastEndurance: past, BadBlocks: bad,
	}
}

func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "duration      %v\n", r.Duration)
	fmt.Fprintf(&b, "throughput    %.0f IOPS\n", r.Throughput)
	fmt.Fprintf(&b, "read latency  %v\n", r.ReadLatency)
	fmt.Fprintf(&b, "write latency %v\n", r.WriteLatency)
	fmt.Fprintf(&b, "write amp     %.3f\n", r.WriteAmplification)
	fmt.Fprintf(&b, "gc            %d pages migrated, %d erases\n", r.GCMigratedPages, r.GCErases)
	fmt.Fprintf(&b, "wl            %d pages migrated\n", r.WLMigratedPages)
	if r.TransReads+r.TransWrites > 0 {
		fmt.Fprintf(&b, "mapping       %d trans reads, %d trans writes\n", r.TransReads, r.TransWrites)
	}
	fmt.Fprintf(&b, "wear          erase counts [%d, %d] mean %.1f std %.2f\n",
		r.Wear.MinErase, r.Wear.MaxErase, r.Wear.MeanErase, r.Wear.StdErase)
	if r.Retries+r.Relocations+r.EraseFailures+r.GrownBadBlocks > 0 {
		fmt.Fprintf(&b, "reliability   %d retries, %d relocations, %d erase failures, %d grown bad, effective OP %.3f\n",
			r.Retries, r.Relocations, r.EraseFailures, r.GrownBadBlocks, r.EffectiveOP)
	}
	fmt.Fprintf(&b, "os queue      max pending %d, max in-flight %d\n", r.MaxPendingOS, r.MaxInFlight)
	return b.String()
}
