package osched

import (
	"testing"

	"eagletree/internal/iface"
	"eagletree/internal/sim"
)

// recordingCapture is a minimal Capture for tests; the real implementation
// lives in internal/trace.
type recordingCapture struct {
	at  []sim.Time
	lpn []iface.LPN
}

func (c *recordingCapture) Submitted(at sim.Time, r *iface.Request) {
	c.at = append(c.at, at)
	c.lpn = append(c.lpn, r.LPN)
}

func TestOSCaptureSeesEverySubmission(t *testing.T) {
	cap := &recordingCapture{}
	r := newOSRig(t, Config{QueueDepth: 2, Capture: cap})
	for i := 0; i < 8; i++ {
		r.submit(uint64(i+1), iface.Write, 0, iface.Tags{})
	}
	r.eng.RunUntilIdle()
	if len(cap.at) != 8 {
		t.Fatalf("capture saw %d submissions, want 8", len(cap.at))
	}
	for i, lpn := range cap.lpn {
		if lpn != iface.LPN(i+1) {
			t.Fatalf("capture position %d saw lpn %d, want %d", i, lpn, i+1)
		}
	}
}

// TestOSSubmitNilCaptureAllocs guards the capture hook's cost when disabled:
// the submit path must not allocate beyond amortized pool growth, so trace
// recording stays off the zero-alloc dispatch path.
func TestOSSubmitNilCaptureAllocs(t *testing.T) {
	eng := sim.NewEngine()
	dev := &quietDevice{eng: eng, latency: 10 * sim.Microsecond}
	dev.completeFn = func(a any) {
		r := a.(*iface.Request)
		r.Completed = eng.Now()
		dev.onComplete(r)
	}
	os, err := New(eng, dev, Config{QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	dev.onComplete = os.Completed
	const batch = 128
	reqs := make([]*iface.Request, batch)
	for i := range reqs {
		reqs[i] = &iface.Request{}
	}
	var id uint64
	runBatch := func() {
		for _, req := range reqs {
			id++
			*req = iface.Request{ID: id, Type: iface.Read, LPN: iface.LPN(id % 64), Source: iface.SourceApp}
			os.Submit(req)
		}
		eng.RunUntilIdle()
	}
	runBatch() // warm the policy queue and event pool
	allocs := testing.AllocsPerRun(10, runBatch)
	if perIO := allocs / batch; perIO > 0.05 {
		t.Fatalf("OS submit path allocates %.3f objects per IO with capture off", perIO)
	}
}

// quietDevice completes requests through the pooled ScheduleCall path so the
// alloc guard above measures only the OS layer.
type quietDevice struct {
	eng        *sim.Engine
	latency    sim.Duration
	onComplete func(*iface.Request)
	completeFn func(any)
}

func (d *quietDevice) Submit(r *iface.Request) {
	d.eng.ScheduleCall(d.eng.Now().Add(d.latency), d.completeFn, r)
}

// TestDrainedQueueReusesStorage guards the closed-loop steady state, where
// the pending pool drains between submissions: FIFO and CFQ must keep their
// backing arrays across a drain instead of reallocating on the next Push.
func TestDrainedQueueReusesStorage(t *testing.T) {
	for _, p := range []Policy{&FIFO{}, &CFQ{}} {
		reqs := make([]*iface.Request, 4)
		for i := range reqs {
			reqs[i] = &iface.Request{ID: uint64(i + 1), Thread: i % 2}
		}
		cycle := func() {
			for _, r := range reqs {
				p.Push(r)
			}
			for range reqs {
				if p.Pop(0) == nil {
					t.Fatalf("%s: queue drained early", p.Name())
				}
			}
		}
		cycle() // first growth
		if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
			t.Errorf("%s allocates %.1f objects per drain cycle, want 0", p.Name(), allocs)
		}
	}
}

// TestFIFOOrderAcrossReclaim keeps a FIFO from ever draining so its dead
// prefix is reclaimed mid-stream, and checks submission order survives.
func TestFIFOOrderAcrossReclaim(t *testing.T) {
	f := &FIFO{}
	next, want := uint64(1), uint64(1)
	for step := 0; step < 1000; step++ {
		for i := 0; i < 2; i++ {
			f.Push(&iface.Request{ID: next})
			next++
		}
		if r := f.Pop(0); r.ID != want {
			t.Fatalf("step %d: popped %d, want %d", step, r.ID, want)
		}
		want++
	}
	if got, exp := f.Len(), int(next-want); got != exp {
		t.Fatalf("Len = %d, want %d", got, exp)
	}
	for ; want < next; want++ {
		if r := f.Pop(0); r.ID != want {
			t.Fatalf("drain: popped %d, want %d", r.ID, want)
		}
	}
	if f.Pop(0) != nil || f.Len() != 0 {
		t.Fatal("queue not empty after drain")
	}
}
