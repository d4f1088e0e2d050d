package flash

import (
	"fmt"

	"eagletree/internal/fault"
	"eagletree/internal/sim"
)

// FaultOp identifies which flash operation a FaultError hit.
type FaultOp uint8

const (
	// FaultProgram is a failed page program (write or copyback).
	FaultProgram FaultOp = iota
	// FaultErase is a failed block erase.
	FaultErase
)

func (o FaultOp) String() string {
	if o == FaultErase {
		return "erase"
	}
	return "program"
}

// FaultError reports an operation failed by the configured fault model. The
// operation's time was consumed (the returned Schedule is valid) and the
// array state reflects the failure: a failed program burns its page (the
// write pointer advances past an unusable page), a failed erase leaves the
// block dirty, and Grown reports that the block was retired. The caller —
// the controller — owns recovery: relocating the write, skipping the victim,
// migrating survivors off a grown-bad block.
type FaultError struct {
	Op    FaultOp
	Block BlockID
	// Grown reports the block was marked bad as part of the failure.
	Grown bool
}

func (e *FaultError) Error() string {
	if e.Grown {
		return fmt.Sprintf("flash: injected %v failure on %v (block grown bad)", e.Op, e.Block)
	}
	return fmt.Sprintf("flash: injected %v failure on %v", e.Op, e.Block)
}

// SetInjector installs a fault model consulted on every program and erase
// targeting blocks at or above firstBlock (the data region; the translation
// ring's reserved blocks are exempt, matching the factory bad-block model's
// confinement). A nil model disables injection with no per-operation cost.
func (a *Array) SetInjector(m fault.Model, firstBlock int) {
	a.injector = m
	a.injectFrom = firstBlock
}

// injectProgram consults the fault model for a program on block bi's next
// page. It returns nil when the operation proceeds; otherwise it applies the
// failure to array state — the page is burned (invalid, never valid), the
// write pointer advances, and a grown-bad outcome retires the block — and
// returns the typed error. The schedule's time was already reserved: a
// failed program costs what a successful one does. Callers have already
// ruled out a bad block.
//
//eagletree:hotpath
func (a *Array) injectProgram(p PPA, bi int, done sim.Time) *FaultError {
	if a.injector == nil || p.Block < a.injectFrom {
		return nil
	}
	oc := a.injector.Program(int(a.eraseCount[bi]), done)
	if oc == fault.OK {
		return nil
	}
	if a.writePtr[bi] == 0 { // free: the burn makes it a programmed bucket member
		a.bucketAdd(p.LUN, p.Block, int(a.validPages[bi]))
	}
	if a.pagesShared {
		a.own()
	}
	a.pages[a.geo.Index(p)] = PageInvalid
	a.writePtr[bi]++
	a.counters.Writes++
	ferr := &FaultError{Op: FaultProgram, Block: p.BlockOf(), Grown: oc == fault.GrownBad}
	if ferr.Grown {
		a.MarkBad(p.BlockOf())
	}
	return ferr
}

// injectErase consults the fault model for an erase of b. On failure the
// attempt still wears the cells (the erase count advances) but the pages
// stay programmed, and the block is retired — a failed erase is how blocks
// grow bad in the field.
//
//eagletree:hotpath
func (a *Array) injectErase(b BlockID, bi int, done sim.Time) *FaultError {
	if a.injector == nil || b.Block < a.injectFrom {
		return nil
	}
	if a.injector.Erase(int(a.eraseCount[bi]), done) == fault.OK {
		return nil
	}
	a.eraseCount[bi]++
	a.counters.Erases++
	a.MarkBad(b)
	return &FaultError{Op: FaultErase, Block: b, Grown: true}
}
