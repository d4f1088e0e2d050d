package workload_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"eagletree/internal/controller"
	"eagletree/internal/core"
	"eagletree/internal/experiment"
	"eagletree/internal/flash"
	"eagletree/internal/iface"
	"eagletree/internal/osched"
	"eagletree/internal/spec"
	"eagletree/internal/workload"
)

// poisoned runs f with every recycled request and timer record overwritten
// by values no live one holds.
func poisoned(f func()) {
	workload.SetPoisonRecycled(true)
	defer workload.SetPoisonRecycled(false)
	f()
}

// checker submits a closed loop of reads and writes and checks, in each
// OnComplete, that the request it receives is the one it submitted under
// that id, with every field the stack stamped still in place.
type checker struct {
	space   int64
	count   int
	issued  int
	pending map[uint64]submitted
	done    int
	bad     int    // completions that did not match their submission
	first   string // the first of them
}

type submitted struct {
	typ iface.ReqType
	lpn iface.LPN
}

func (c *checker) Init(ctx *workload.Ctx) {
	c.pending = make(map[uint64]submitted)
	for i := 0; i < 16; i++ {
		c.next(ctx)
	}
}

func (c *checker) next(ctx *workload.Ctx) {
	if c.issued == c.count {
		return
	}
	typ := iface.Write
	if c.issued%3 == 0 {
		typ = iface.Read
	}
	lpn := iface.LPN(ctx.RNG().Int63() % c.space)
	r := ctx.Submit(typ, lpn, iface.Tags{})
	c.pending[r.ID] = submitted{typ, lpn}
	c.issued++
}

func (c *checker) OnComplete(ctx *workload.Ctx, r *iface.Request) {
	want, ok := c.pending[r.ID]
	var bad string
	switch {
	case !ok:
		bad = fmt.Sprintf("completion of request %d, which was never submitted or already completed", r.ID)
	case r.Type != want.typ || r.LPN != want.lpn || r.Source != iface.SourceApp || r.Thread != ctx.ID():
		bad = fmt.Sprintf("request %d completed as %v, submitted as %v lpn=%d", r.ID, r, want.typ, want.lpn)
	case r.Completed != ctx.Now() || r.Submitted > r.Issued || r.Issued > r.Completed:
		bad = fmt.Sprintf("request %d completed at %v with stamps %v/%v/%v", r.ID, ctx.Now(), r.Submitted, r.Issued, r.Completed)
	}
	if bad != "" {
		if c.bad == 0 {
			c.first = bad
		}
		c.bad++
	}
	delete(c.pending, r.ID)
	c.done++
	c.next(ctx)
	if ctx.InFlight() == 0 && c.issued == c.count {
		ctx.Finish()
	}
}

// TestRecycledRequestValidUntilOnCompleteReturns: with recycling poisoned,
// every completion still delivers the request as submitted — on a plain
// device, with GC, and on a write-buffered one, whose writes complete from
// the buffer while their flush is still on its way to flash.
func TestRecycledRequestValidUntilOnCompleteReturns(t *testing.T) {
	for _, buffer := range []int{0, 8} {
		t.Run(fmt.Sprintf("buffer=%d", buffer), func(t *testing.T) {
			s, err := core.New(core.Config{
				Controller: controller.Config{
					Geometry:         flash.Geometry{Channels: 2, LUNsPerChannel: 2, BlocksPerLUN: 32, PagesPerBlock: 16, PageSize: 4096},
					Overprovision:    0.15,
					GCGreediness:     2,
					WL:               controller.WLOff(),
					WriteBufferPages: buffer,
				},
				OS:   osched.Config{QueueDepth: 8},
				Seed: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			c := &checker{space: int64(s.LogicalPages()), count: 3 * s.LogicalPages()}
			s.Add(c)
			poisoned(func() { s.Run() })
			if c.bad > 0 {
				t.Fatalf("%d of %d completions did not deliver the submitted request; the first: %s", c.bad, c.done, c.first)
			}
			if c.done != c.count || len(c.pending) != 0 {
				t.Fatalf("%d of %d completions, %d pending", c.done, c.count, len(c.pending))
			}
			if rep := s.Report(); rep.GCMigratedPages == 0 {
				t.Fatal("the run never collected garbage")
			}
		})
	}
}

// suiteDump renders the reports of each document at seed 7, one %#v line a
// variant.
func suiteDump(t *testing.T, docs []spec.Experiment) []string {
	t.Helper()
	out := make([]string, len(docs))
	for i, doc := range docs {
		doc.Base.Seed = 7
		def, err := experiment.FromSpec(doc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := experiment.New(experiment.Options{}).Run(context.Background(), def)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, row := range res.Rows {
			fmt.Fprintf(&b, "%s %#v\n", row.Label, row.Report)
		}
		out[i] = b.String()
	}
	return out
}

// TestPoisonedSuiteMatches runs the small E1–E14 suite and a write-buffered
// copy of E3 twice, clean and with recycled requests and timer records
// poisoned: any layer that reads a request after its OnComplete returned, or
// a timer record after it fired, changes a Report or panics.
func TestPoisonedSuiteMatches(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the small suite twice; skipped with -short")
	}
	docs := experiment.SuiteSpecs(experiment.Small)
	e3 := -1
	for i, doc := range docs {
		if strings.HasPrefix(doc.Name, "E3-") {
			e3 = i
		}
	}
	if len(docs) != 14 || e3 < 0 {
		t.Fatalf("%d documents, want the 14 of the suite with E3 among them", len(docs))
	}
	buffered := docs[e3]
	buffered.Name += "-buffered"
	buffered.Base.WriteBuffer.Pages = 16
	docs = append(docs, buffered)

	want := suiteDump(t, docs)
	if want[len(docs)-1] == want[e3] {
		t.Fatal("the write buffer left E3's reports unchanged: the buffered configuration runs nothing new")
	}
	var got []string
	poisoned(func() { got = suiteDump(t, docs) })
	for i := range docs {
		if got[i] != want[i] {
			t.Errorf("%s: a poisoned run's Reports differ\nclean:\n%.600s\npoisoned:\n%.600s", docs[i].Name, want[i], got[i])
		}
	}
}
