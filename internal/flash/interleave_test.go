package flash

import (
	"testing"

	"eagletree/internal/sim"
)

func ilvArray(t *testing.T, feat Features) *Array {
	t.Helper()
	geo := Geometry{Channels: 1, LUNsPerChannel: 2, BlocksPerLUN: 4, PagesPerBlock: 4, PageSize: 4096}
	return NewArray(geo, TimingSLC(), feat)
}

// Two writes to different LUNs on one channel: without interleaving the
// second serializes behind the first's full duration; with interleaving only
// the bus phases serialize and the programs overlap.
func TestInterleavingOverlapsPrograms(t *testing.T) {
	tm := TimingSLC()
	full := tm.Cmd + tm.Transfer + tm.PageWrite

	plain := ilvArray(t, Features{})
	s1, err := plain.ScheduleWrite(PPA{LUN: 0, Block: 0, Page: 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := plain.ScheduleWrite(PPA{LUN: 1, Block: 0, Page: 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Done != sim.Time(0).Add(full) || s2.Done != sim.Time(0).Add(2*full) {
		t.Fatalf("plain channel: done at %v and %v, want %v and %v", s1.Done, s2.Done, full, 2*full)
	}

	ilv := ilvArray(t, Features{Interleaving: true})
	i1, err := ilv.ScheduleWrite(PPA{LUN: 0, Block: 0, Page: 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	i2, err := ilv.ScheduleWrite(PPA{LUN: 1, Block: 0, Page: 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if i1.Done != sim.Time(0).Add(full) {
		t.Fatalf("interleaved first write done at %v, want %v", i1.Done, full)
	}
	wantSecond := sim.Time(0).Add(tm.Cmd + tm.Transfer + full)
	if i2.Done != wantSecond {
		t.Fatalf("interleaved second write done at %v, want %v (bus wait only)", i2.Done, wantSecond)
	}
	if i2.Done >= s2.Done {
		t.Fatal("interleaving did not beat the plain channel")
	}
}

// A read can slot its data transfer into the channel while another LUN's
// program holds only that LUN.
func TestInterleavingReadDuringProgram(t *testing.T) {
	tm := TimingSLC()
	a := ilvArray(t, Features{Interleaving: true})
	// Park a long program on LUN 0.
	if _, err := a.ScheduleWrite(PPA{LUN: 0, Block: 0, Page: 0}, 0); err != nil {
		t.Fatal(err)
	}
	// Make a readable page on LUN 1 (write completes first in virtual time,
	// but scheduling order is what matters for reservations).
	if _, err := a.ScheduleWrite(PPA{LUN: 1, Block: 0, Page: 0}, 0); err != nil {
		t.Fatal(err)
	}
	rd, err := a.ScheduleRead(PPA{LUN: 1, Block: 0, Page: 0}, a.LUNFreeAt(1))
	if err != nil {
		t.Fatal(err)
	}
	// The read must not wait for LUN 0's program to release the channel:
	// it finishes well before a full serialization would allow.
	serialized := sim.Time(0).Add(2*(tm.Cmd+tm.Transfer+tm.PageWrite) + tm.Cmd + tm.PageRead + tm.Transfer)
	if rd.Done >= serialized {
		t.Fatalf("read done at %v, not better than full serialization %v", rd.Done, serialized)
	}
}

func TestInterleavingErasePath(t *testing.T) {
	a := ilvArray(t, Features{Interleaving: true})
	if _, err := a.ScheduleWrite(PPA{LUN: 0, Block: 0, Page: 0}, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Invalidate(PPA{LUN: 0, Block: 0, Page: 0}); err != nil {
		t.Fatal(err)
	}
	sched, err := a.ScheduleErase(BlockID{LUN: 0, Block: 0}, a.LUNFreeAt(0))
	if err != nil {
		t.Fatal(err)
	}
	if sched.Done <= sched.Start {
		t.Fatal("erase has no duration")
	}
	if freeBlocks(a, 0) != 4 {
		t.Fatalf("free blocks %d after erase, want 4", freeBlocks(a, 0))
	}
}

func TestInterleavingCopybackPath(t *testing.T) {
	a := ilvArray(t, Features{Interleaving: true, Copyback: true})
	if _, err := a.ScheduleWrite(PPA{LUN: 0, Block: 0, Page: 0}, 0); err != nil {
		t.Fatal(err)
	}
	cb, err := a.ScheduleCopyback(PPA{LUN: 0, Block: 0, Page: 0}, PPA{LUN: 0, Block: 1, Page: 0}, a.LUNFreeAt(0))
	if err != nil {
		t.Fatal(err)
	}
	tm := TimingSLC()
	if got := cb.Done.Sub(cb.Start); got != tm.Cmd+tm.PageRead+tm.PageWrite {
		t.Fatalf("copyback duration %v, want cmd+read+write", got)
	}
	if a.Counters().Copybacks != 1 {
		t.Fatalf("copyback counter %d", a.Counters().Copybacks)
	}
}

func TestScheduleLatencyHelper(t *testing.T) {
	s := Schedule{Start: 100, Done: 400}
	if s.Latency(50) != 350 {
		t.Fatalf("latency %v, want 350", s.Latency(50))
	}
}

func TestArrayAccessors(t *testing.T) {
	a := ilvArray(t, Features{Copyback: true})
	if a.Geometry().LUNs() != 2 {
		t.Fatal("geometry accessor wrong")
	}
	if !a.Features().Copyback {
		t.Fatal("features accessor wrong")
	}
	if a.ChannelFreeAt(0) != 0 {
		t.Fatal("fresh channel not free at 0")
	}
	if a.LUNBusy(0, 0) {
		t.Fatal("fresh LUN busy")
	}
	if _, err := a.ScheduleWrite(PPA{LUN: 0, Block: 0, Page: 0}, 0); err != nil {
		t.Fatal(err)
	}
	if !a.LUNBusy(0, 1) {
		t.Fatal("LUN not busy mid-write")
	}
	if len(a.Columns().EraseCount) != a.Geometry().Blocks() {
		t.Fatal("erase counts length wrong")
	}
	if a.ValidPagesIn(BlockID{LUN: 0, Block: 0}) != 1 {
		t.Fatal("valid pages in block wrong")
	}
	for _, s := range []PageState{PageFree, PageValid, PageInvalid, PageState(7)} {
		if s.String() == "" {
			t.Error("empty page state string")
		}
	}
}

func TestTimingValidateRejectsEachField(t *testing.T) {
	base := TimingSLC()
	muts := []func(*Timing){
		func(t *Timing) { t.Cmd = 0 },
		func(t *Timing) { t.Transfer = 0 },
		func(t *Timing) { t.PageRead = 0 },
		func(t *Timing) { t.PageWrite = 0 },
		func(t *Timing) { t.BlockErase = 0 },
		func(t *Timing) { t.EnduranceLimit = 0 },
	}
	for i, mut := range muts {
		tm := base
		mut(&tm)
		if err := tm.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if SLC.String() != "SLC" || MLC.String() != "MLC" || CellType(9).String() == "" {
		t.Error("cell type strings wrong")
	}
}
