package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"time"
)

// wireCounter totals what crossed the coordinator's side of the fabric pipe.
// The coordinator reads and writes from different goroutines.
type wireCounter struct {
	bytes, msgs atomic.Int64
}

func (w *wireCounter) load() (bytes, msgs int64) { return w.bytes.Load(), w.msgs.Load() }

// count adds one read or written chunk. The wire is NDJSON, one message per
// line, and neither JSON strings nor base64 carry a raw newline.
func (w *wireCounter) count(p []byte) {
	w.bytes.Add(int64(len(p)))
	w.msgs.Add(int64(bytes.Count(p, []byte{'\n'})))
}

type countingConn struct {
	io.ReadWriteCloser
	n *wireCounter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.ReadWriteCloser.Read(p)
	c.n.count(p[:n])
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.ReadWriteCloser.Write(p)
	c.n.count(p[:n])
	return n, err
}

// phases are the spans of the Runner's flow, in flow order; each becomes the
// per-layer metric of the same name with "_s" appended.
var phases = []string{
	"spec.decode", "spec.expand", "spec.canonkey", "core.new", "core.prepare_run", "core.snapshot",
	"snapshot.encode", "snapshot.file", "snapshot.verify", "snapshot.decode", "core.restore",
	"experiment.register", "core.measure_run", "core.report",
	"resultstore.sink", "resultstore.append", "resultstore.rows", "query.fromrows",
	"query.filter", "query.sort", "query.groupby", "query.join", "query.diff", "query.render",
}

// traceRun is the traced run: the same set-up, one untraced pass through the
// public entry point (its rows are the reference, its wall the base of the
// overhead ratio), then one traced pass — the direct-drive flow for sweep
// workloads, the instrumented store and query calls for corpus_query — then
// the counts and the layer kernels. Every per-layer metric is emitted; those
// of layers the workload bypasses read zero.
func traceRun(w workloadDef, e *env, spansOut string) (*result, error) {
	res := newResult(w, e, true)
	chk := &checker{}
	inst, _, captureS, err := setUp(w, e, chk)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{"trace.capture_s": captureS}

	var wireBytes, wireMsgs int64
	if inst.wire != nil {
		wireBytes, wireMsgs = inst.wire()
	}
	runtime.GC() // as measure does before each timed pass
	out, firstWall, err := inst.pass(nil, &opClock{})
	if err != nil {
		return nil, err
	}
	chk.check(out.lines)
	res.Attempted += out.ops
	if out.storeRows > 0 {
		m["resultstore.bytes_per_row"] = float64(out.storeBytes) / float64(out.storeRows)
	}
	m["experiment.prepare_hits"] = float64(out.hits)
	m["experiment.prepare_misses"] = float64(out.misses)
	if inst.wire != nil {
		b, n := inst.wire()
		m["fabric.wire_bytes"] = float64(b - wireBytes)
		m["fabric.msgs"] = float64(n - wireMsgs)
	}
	// The flow the direct drive reproduces is the in-process Runner's; for
	// fabric_pipe that is the same document without the wire, and the
	// difference between the two walls is what the wire cost.
	var runnerWall time.Duration
	if inst.inProcess == nil {
		runnerWall, err = medianWall(inst.pass, firstWall)
	} else {
		var fabricWall time.Duration
		if fabricWall, err = medianWall(inst.pass, firstWall); err == nil {
			runnerWall, err = medianWall(inst.inProcess)
		}
		m["fabric.wire_s"] = (fabricWall - runnerWall).Seconds()
	}
	if err != nil {
		return nil, err
	}

	l := newSpanLog()
	l.nextPass()
	var c counts
	runtime.GC()
	endPass := l.begin("pass")
	begin := time.Now()
	if inst.drive != nil {
		lines, err := inst.drive(l, &c)
		if err != nil {
			return nil, err
		}
		// Each reproduced row is one more operation: it must be the row the
		// Runner returned, bit for bit.
		res.Attempted += len(lines)
		chk.check(lines)
	} else {
		out, _, err := inst.pass(l, &opClock{})
		if err != nil {
			return nil, err
		}
		res.Attempted += out.ops
		chk.check(out.lines)
	}
	traced := time.Since(begin)
	endPass()
	finish(res, chk)

	self := l.selfSeconds(1)
	var accounted float64
	for _, p := range phases {
		m[p+"_s"] = self[p]
		accounted += self[p]
	}
	if inst.drive != nil {
		m["experiment.glue_s"] = runnerWall.Seconds() - accounted
		c.metrics(m)
	}
	m["trace.overhead_ratio"] = traced.Seconds() / runnerWall.Seconds()
	res.Shares = shares(self, traced.Seconds())

	res.KernelAllocs = map[string]float64{}
	if err := runKernels(e, m, res.KernelAllocs); err != nil {
		return nil, err
	}
	if res.Metrics, err = fill(perLayer, m); err != nil {
		return nil, err
	}
	if spansOut != "" {
		if err := l.write(spansOut); err != nil {
			return nil, fmt.Errorf("bench: writing spans: %w", err)
		}
	}
	return res, nil
}

// medianWall is the untraced wall clock the traced pass is held against: the
// median of three passes where passes are short, one where a pass alone
// takes a second or more. Passes already timed count.
func medianWall(pass func(*spanLog, *opClock) (passOutput, time.Duration, error), already ...time.Duration) (time.Duration, error) {
	var walls []float64
	for _, w := range already {
		walls = append(walls, w.Seconds())
	}
	for len(walls) < 3 && sum(walls) < 1 {
		runtime.GC() // as measure does before each timed pass
		_, wall, err := pass(nil, &opClock{})
		if err != nil {
			return 0, err
		}
		walls = append(walls, wall.Seconds())
	}
	return time.Duration(median(walls) * float64(time.Second)), nil
}

// shares groups the traced pass's self time by what the workloads were built
// to stress, as fractions of the pass's wall clock.
func shares(self map[string]float64, wall float64) map[string]float64 {
	out := map[string]float64{}
	for name, s := range self {
		switch {
		case strings.HasPrefix(name, "snapshot.") || name == "core.restore":
			out["snapshot+restore"] += s / wall
		case name == "core.prepare_run" || name == "core.measure_run":
			out["core.run"] += s / wall
		case strings.HasPrefix(name, "resultstore.") || strings.HasPrefix(name, "query."):
			out["resultstore+query"] += s / wall
		case strings.HasPrefix(name, "spec.") || name == "core.new" || name == "experiment.register" || name == "core.report":
			out["spec+construct"] += s / wall
		}
	}
	return out
}
