package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"time"

	"eagletree/internal/experiment"
	"eagletree/internal/fabric"
	"eagletree/internal/query"
	"eagletree/internal/resultstore"
	"eagletree/internal/spec"
)

// opClock times operations with the benchmark's own clock: each op() is the
// wall time since the previous mark.
type opClock struct {
	last time.Time
	ms   []float64
}

func (c *opClock) start() { c.last = time.Now() }

func (c *opClock) op() {
	now := time.Now()
	c.ms = append(c.ms, float64(now.Sub(c.last))/1e6)
	c.last = now
}

// passOutput is what one pass hands back for checking, gathered after the
// pass's clock stopped.
type passOutput struct {
	lines []string // one per operation output that must be reproduced exactly
	ops   int
	// hits and misses count the Runner's snapshot-cache provenance events.
	hits, misses int
	// storeRows and storeBytes describe the result-store segments the pass wrote.
	storeRows  int
	storeBytes int64
}

// rowLine renders one row exactly as specs/full/golden.txt does, so committed
// specs check against the golden dump line by line.
func rowLine(seed uint64, name string, row experiment.Row) string {
	return fmt.Sprintf("seed=%d %s %s %#v", seed, name, row.Label, row.Report)
}

// timelineSuffix extends a row line for identity checks with what golden.txt
// does not carry.
func timelineSuffix(row experiment.Row) string {
	if row.Timeline == "" {
		return ""
	}
	return " timeline=" + row.Timeline
}

// sweepObserver stamps terminal events with the bench's clock and counts
// cache provenance. The Runner calls it serially.
type sweepObserver struct {
	clk *opClock
	out *passOutput
}

func (o sweepObserver) OnEvent(ev experiment.Event) {
	switch ev.Kind {
	case experiment.EventVariantDone, experiment.EventVariantFailed, experiment.EventVariantCanceled:
		o.clk.op()
		o.out.ops++
	case experiment.EventPrepareHit:
		o.out.hits++
	case experiment.EventPrepareMiss:
		o.out.misses++
	}
}

// sweep is a sweep workload's input: documents on disk, run through the same
// public calls the CLI makes — spec.ReadFile, Validate, experiment.FromSpec,
// experiment.New(Options{Workers: 1}).Run — by one client that waits for
// each reply.
type sweep struct {
	seed  uint64
	paths []string
	// cache returns the pass's snapshot cache: fresh and in memory for the
	// cold workloads, a new handle on the warmed directory for the warm ones.
	cache func() *experiment.StateCache
	// viaFabric runs each document through fabric.Run with one in-process
	// worker over net.Pipe instead of the in-process Runner.
	viaFabric bool
	// wrapConn, when set, wraps the coordinator's side of the pipe (the
	// traced run counts wire bytes there).
	wrapConn func(io.ReadWriteCloser) io.ReadWriteCloser
	// store, when set, persists every row and queries it back (grid_sweep).
	storeRoot string
}

// load reads one document the way `eagletree sweep -spec F -seeds N` does.
func (s *sweep) load(path string) (spec.Experiment, error) {
	doc, err := spec.ReadFile(path)
	if err != nil {
		return doc, err
	}
	doc.Base.Seed = s.seed
	return doc, doc.Validate()
}

// pass runs every document once and returns the rows for checking. Only the
// calls a user waits for are inside the clock; rendering rows for the check
// happens after it stops.
func (s *sweep) pass(clk *opClock) (passOutput, time.Duration, error) {
	var out passOutput
	var results []experiment.Results
	var texts []string
	var stores []*resultstore.Store
	ctx := context.Background()
	cache := s.cache()

	begin := time.Now()
	clk.start()
	for _, path := range s.paths {
		doc, err := s.load(path)
		if err != nil {
			return out, 0, err
		}
		obs := experiment.Observer(sweepObserver{clk: clk, out: &out})
		var sink *resultstore.Sink
		var store *resultstore.Store
		if s.storeRoot != "" {
			dir, err := os.MkdirTemp(s.storeRoot, "store-")
			if err != nil {
				return out, 0, err
			}
			defer os.RemoveAll(dir)
			if store, err = resultstore.Open(dir); err != nil {
				return out, 0, err
			}
			if sink, err = resultstore.NewSink(store, doc, "bench"); err != nil {
				return out, 0, err
			}
			obs = experiment.MultiObserver(obs, sink)
		}
		var res experiment.Results
		if s.viaFabric {
			res, err = s.runFabric(ctx, doc, cache, obs)
		} else {
			var def experiment.Definition
			if def, err = experiment.FromSpec(doc); err == nil {
				res, err = experiment.New(experiment.Options{Workers: 1, Cache: cache, Observer: obs}).Run(ctx, def)
			}
		}
		if err != nil {
			return out, 0, fmt.Errorf("%s: %w", path, err)
		}
		results = append(results, res)
		if sink != nil {
			qs, err := storeAndQuery(nil, sink, store)
			if err != nil {
				return out, 0, err
			}
			texts = append(texts, qs...)
			stores = append(stores, store)
			out.storeRows += len(sink.Rows())
		}
	}
	wall := time.Since(begin)

	for _, res := range results {
		for _, row := range res.Rows {
			out.lines = append(out.lines, rowLine(s.seed, res.Name, row)+timelineSuffix(row))
		}
	}
	out.lines = append(out.lines, texts...)
	for _, store := range stores {
		n, err := segmentBytes(store)
		if err != nil {
			return out, 0, err
		}
		out.storeBytes += n
	}
	return out, wall, nil
}

// runFabric leases the document's variants to one fabric.Serve worker in this
// process over a synchronous pipe. One worker keeps lease placement
// deterministic; the worker's own cache is private and cold, so the prepared
// state crosses the wire once per pass.
func (s *sweep) runFabric(ctx context.Context, doc spec.Experiment, cache *experiment.StateCache, obs experiment.Observer) (experiment.Results, error) {
	coordSide, workerSide := net.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- fabric.Serve(ctx, workerSide, workerSide, fabric.WorkerOptions{})
	}()
	var conn io.ReadWriteCloser = coordSide
	if s.wrapConn != nil {
		conn = s.wrapConn(conn)
	}
	res, err := fabric.Run(ctx, doc, fabric.Options{Conns: []io.ReadWriteCloser{conn}, Cache: cache, Observer: obs})
	coordSide.Close()
	serveErr := <-done
	workerSide.Close()
	if err == nil && serveErr != nil && !errors.Is(serveErr, io.ErrClosedPipe) {
		err = serveErr
	}
	return res, err
}

// gridQueries are the three group-bys grid_sweep asks of its stored rows.
var gridQueries = []struct {
	keys []string
	aggs []query.Agg
}{
	{[]string{"experiment"}, []query.Agg{{Fn: "count"}, {Fn: "mean", Col: "throughput_iops"}, {Fn: "ci95", Col: "throughput_iops"}}},
	{[]string{"max_in_flight"}, []query.Agg{{Fn: "count"}, {Fn: "mean", Col: "write_mean_ns"}, {Fn: "max", Col: "write_p99_ns"}}},
	{[]string{"label"}, []query.Agg{{Fn: "count"}, {Fn: "mean", Col: "write_amp"}, {Fn: "min", Col: "read_mean_ns"}}},
}

// storeAndQuery takes a finished sweep's rows the rest of the way: sink →
// Flush → Store.Rows → FromRows → three GroupBy, each rendered. It returns
// the rendered texts.
func storeAndQuery(l *spanLog, sink *resultstore.Sink, store *resultstore.Store) ([]string, error) {
	end := l.begin("resultstore.append")
	err := sink.Flush()
	end()
	if err != nil {
		return nil, err
	}
	end = l.begin("resultstore.rows")
	rows, err := store.Rows()
	end()
	if err != nil {
		return nil, err
	}
	end = l.begin("query.fromrows")
	tab := query.FromRows(rows)
	end()
	var texts []string
	for _, q := range gridQueries {
		end = l.begin("query.groupby")
		g, err := tab.GroupBy(q.keys, q.aggs)
		end()
		if err != nil {
			return nil, err
		}
		end = l.begin("query.render")
		texts = append(texts, g.Text())
		end()
	}
	return texts, nil
}

// segmentBytes returns the bytes of a store's segment files.
func segmentBytes(store *resultstore.Store) (int64, error) {
	segs, err := store.Segments()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, seg := range segs {
		fi, err := os.Stat(filepath.Join(store.Dir(), seg))
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}
