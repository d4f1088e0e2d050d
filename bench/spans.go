package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer's public API, recorded by the
// benchmark from outside the program. Parent is the index of the span that
// was open when this one began (-1 for a root); spans of one pass share Pass.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the log's origin
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Pass   int    `json:"pass"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, so untraced passes run the same code with tracing off.
type spanLog struct {
	origin time.Time
	spans  []span
	open   []int // stack of indices into spans
	pass   int
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span under the innermost open one; the returned func ends it.
func (l *spanLog) begin(name string) func() {
	if l == nil {
		return func() {}
	}
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	id := len(l.spans)
	l.spans = append(l.spans, span{Name: name, Start: int64(time.Since(l.origin)), Parent: parent, Pass: l.pass})
	l.open = append(l.open, id)
	return func() {
		l.spans[id].End = int64(time.Since(l.origin))
		l.open = l.open[:len(l.open)-1]
	}
}

// nextPass starts a new pass id for the spans that follow.
func (l *spanLog) nextPass() {
	if l != nil {
		l.pass++
	}
}

// selfSeconds sums, per span name, duration minus the time covered by direct
// children, over the spans of one pass.
func (l *spanLog) selfSeconds(pass int) map[string]float64 {
	out := map[string]float64{}
	if l == nil {
		return out
	}
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range l.spans {
		if s.Pass == pass {
			out[s.Name] += float64(s.End-s.Start-child[i]) / 1e9
		}
	}
	return out
}

// write dumps every span as one JSON line.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
