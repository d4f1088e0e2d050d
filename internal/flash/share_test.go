package flash

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"eagletree/internal/fault"
)

// sharedArrayState is a small programmed device: block (0,0) full with one
// page already stale, block (0,1) fully stale (erasable), everything else
// free — so every page-state write can be the first thing a restored array
// does.
func sharedArrayState(t *testing.T) ArrayState {
	t.Helper()
	a := newTestArray(Features{Copyback: true})
	for blk := 0; blk < 2; blk++ {
		for pg := 0; pg < a.geo.PagesPerBlock; pg++ {
			p := PPA{LUN: 0, Block: blk, Page: pg}
			if _, err := a.ScheduleWrite(p, 0); err != nil {
				t.Fatal(err)
			}
			if blk == 1 || pg == 0 {
				if err := a.Invalidate(p); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return a.State(0)
}

// TestRestoredArraySharesPagesUntilWrite: RestoreArray adopts the snapshot's
// page-state column, and each of the five write sites — program, erase,
// copyback, Invalidate, the fault burn — copies it before writing when it is
// the restored array's first write. The snapshot must read the same
// afterwards, the array must show the write, and a second array restored
// from the same snapshot must not.
func TestRestoredArraySharesPagesUntilWrite(t *testing.T) {
	st := sharedArrayState(t)
	want := append([]PageState(nil), st.Pages...)
	restore := func() *Array {
		a, err := RestoreArray(testGeo(), TimingSLC(), Features{Copyback: true}, st)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	burn := fault.NewRandom(1, 0, 0, 1) // every program fails, no block retires
	for _, op := range []struct {
		name  string
		write func(a *Array) error
		at    PPA
		now   PageState
	}{
		{"program", func(a *Array) error { _, err := a.ScheduleWrite(PPA{LUN: 0, Block: 2}, 0); return err }, PPA{LUN: 0, Block: 2}, PageValid},
		{"erase", func(a *Array) error { _, err := a.ScheduleErase(BlockID{LUN: 0, Block: 1}, 0); return err }, PPA{LUN: 0, Block: 1}, PageFree},
		{"copyback", func(a *Array) error {
			_, err := a.ScheduleCopyback(PPA{LUN: 0, Block: 0, Page: 1}, PPA{LUN: 0, Block: 2}, 0)
			return err
		}, PPA{LUN: 0, Block: 2}, PageValid},
		{"invalidate", func(a *Array) error { return a.Invalidate(PPA{LUN: 0, Block: 0, Page: 1}) }, PPA{LUN: 0, Block: 0, Page: 1}, PageInvalid},
		{"program-burn", func(a *Array) error {
			a.SetInjector(burn, 0)
			_, err := a.ScheduleWrite(PPA{LUN: 0, Block: 2}, 0)
			if fe := (*FaultError)(nil); !errors.As(err, &fe) {
				return fmt.Errorf("injected program failure returned %v", err)
			}
			return nil
		}, PPA{LUN: 0, Block: 2}, PageInvalid},
	} {
		t.Run(op.name, func(t *testing.T) {
			a, reader := restore(), restore()
			if !a.pagesShared || &a.pages[0] != &st.Pages[0] {
				t.Fatal("RestoreArray copied the page-state column instead of adopting it")
			}
			before := reader.PageState(op.at)
			if err := op.write(a); err != nil {
				t.Fatal(err)
			}
			if a.pagesShared || &a.pages[0] == &st.Pages[0] {
				t.Fatal("the array still shares the snapshot's column after writing")
			}
			if got := a.PageState(op.at); got != op.now {
				t.Fatalf("%v reads %v after the write, want %v", op.at, got, op.now)
			}
			if !reflect.DeepEqual(st.Pages, want) {
				t.Fatal("the write went through to the snapshot's column")
			}
			if got := reader.PageState(op.at); got != before || !reader.pagesShared {
				t.Fatalf("a second array restored from the snapshot reads %v at %v, was %v", got, op.at, before)
			}
		})
	}
}

// TestRestoreArrayRejectsShape: every shape check holds against the
// geometry, before anything is adopted.
func TestRestoreArrayRejectsShape(t *testing.T) {
	for name, bend := range map[string]func(*ArrayState){
		"pages":       func(s *ArrayState) { s.Pages = s.Pages[1:] },
		"erase count": func(s *ArrayState) { s.Blocks.EraseCount = s.Blocks.EraseCount[1:] },
		"last erase":  func(s *ArrayState) { s.Blocks.LastErase = s.Blocks.LastErase[1:] },
		"valid pages": func(s *ArrayState) { s.Blocks.ValidPages = s.Blocks.ValidPages[1:] },
		"write ptr":   func(s *ArrayState) { s.Blocks.WritePtr = s.Blocks.WritePtr[1:] },
		"bad":         func(s *ArrayState) { s.Blocks.Bad = s.Blocks.Bad[1:] },
		"channels":    func(s *ArrayState) { s.Channels = s.Channels[1:] },
		"luns":        func(s *ArrayState) { s.LUNs = s.LUNs[1:] },
	} {
		st := sharedArrayState(t)
		bend(&st)
		if _, err := RestoreArray(testGeo(), TimingSLC(), Features{}, st); !errors.Is(err, ErrStateMismatch) {
			t.Errorf("%s one short: err = %v, want ErrStateMismatch", name, err)
		}
	}
	st := sharedArrayState(t)
	a, err := RestoreArray(testGeo(), TimingSLC(), Features{}, st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.State(0), st) {
		t.Fatal("a restored array's State differs from the snapshot it was restored from")
	}
}
