package ftl

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"eagletree/internal/iface"
)

// TestRestoredPageMapSharesUntilMutation: a shared restore holds no reverse
// column until first need. RestorePageMap adopts the snapshot's forward
// column; Map and Unmap — each as the restored map's first mutation — copy
// it and build no reverse column; the first LPNAt builds one from the
// current forward column, on a still-shared map too, which keeps sharing its
// forward column. No-op calls (remapping onto the same page, unmapping an
// unmapped LPN) and lookups copy and build nothing. The snapshot and a
// second map restored from it never see the mutation.
func TestRestoredPageMapSharesUntilMutation(t *testing.T) {
	g := ftlGeo()
	src := NewPageMap(g, 64)
	for lpn := 0; lpn < 40; lpn++ {
		src.Map(iface.LPN(lpn), g.PPAOf(lpn))
	}
	st := src.State()
	want := src.State()
	restore := func() *PageMap {
		pm, err := RestorePageMap(g, 64, st)
		if err != nil {
			t.Fatal(err)
		}
		return pm
	}
	for _, op := range []struct {
		name   string
		mutate func(pm *PageMap)
		noop   func(pm *PageMap)
	}{
		{"map", func(pm *PageMap) { pm.Map(3, g.PPAOf(100)) }, func(pm *PageMap) { pm.Map(3, g.PPAOf(3)) }},
		{"unmap", func(pm *PageMap) { pm.Unmap(3) }, func(pm *PageMap) { pm.Unmap(50); pm.Unmap(-1) }},
		// LPNAt first: the reverse column is built while the forward one is
		// still shared, and the later mutation keeps it and updates it.
		{"lpnat-then-map", func(pm *PageMap) { pm.Map(3, g.PPAOf(100)) }, func(pm *PageMap) {
			if lpn, ok := pm.LPNAt(g.PPAOf(3)); !ok || lpn != 3 {
				t.Fatalf("LPNAt on a shared map = %v, %v", lpn, ok)
			}
			if pm.reverse == nil || !pm.shared || &pm.forward[0] != &st.Forward[0] {
				t.Fatal("LPNAt on a shared map did not derive the reverse column, or copied the forward one")
			}
		}},
	} {
		t.Run(op.name, func(t *testing.T) {
			pm, reader := restore(), restore()
			if !pm.shared || &pm.forward[0] != &st.Forward[0] || pm.reverse != nil {
				t.Fatal("RestorePageMap copied the forward column or built a reverse one")
			}
			pm.Lookup(3)
			op.noop(pm)
			if !pm.shared || &pm.forward[0] != &st.Forward[0] {
				t.Fatal("a call that changes nothing copied the forward column")
			}
			derived := pm.reverse
			op.mutate(pm)
			if pm.shared || &pm.forward[0] == &st.Forward[0] {
				t.Fatal("the map still shares the snapshot's column after mutating")
			}
			if (derived == nil) != (pm.reverse == nil) || (derived != nil && &derived[0] != &pm.reverse[0]) {
				t.Fatal("the first mutation built, dropped or rebuilt the reverse column")
			}
			if ppa, ok := pm.Lookup(3); ok && ppa == g.PPAOf(3) {
				t.Fatal("the mutation did not take")
			}
			if _, ok := pm.LPNAt(g.PPAOf(3)); ok {
				t.Fatal("the reverse column still binds the old page")
			}
			if !reflect.DeepEqual(st, want) {
				t.Fatal("the mutation went through to the snapshot's columns")
			}
			if ppa, ok := reader.Lookup(3); !ok || ppa != g.PPAOf(3) || !reader.shared || reader.reverse != nil {
				t.Fatalf("a second map restored from the snapshot reads %v, %v for LPN 3", ppa, ok)
			}
			if !reflect.DeepEqual(reader.State(), want) {
				t.Fatal("the second map's State differs from the snapshot")
			}
		})
	}
}

// TestRestorePageMapRejectsShape: the LPN count is checked against the
// configured logical capacity. (The physical page count is no longer part of
// the state: the snapshot decoder bounds every forward entry by its page
// column, and flash.RestoreArray checks that column against the geometry.)
func TestRestorePageMapRejectsShape(t *testing.T) {
	g := ftlGeo()
	st := NewPageMap(g, 64).State()
	if _, err := RestorePageMap(g, 63, st); !errors.Is(err, ErrStateMismatch) {
		t.Errorf("one LPN short: err = %v, want ErrStateMismatch", err)
	}
	d := NewDFTLOver(NewPageMap(g, 64), 8, 2)
	d.Access(1, true)
	d.Map(1, g.PPAOf(9))
	dst := d.State()
	truth, err := RestorePageMap(g, 64, dst.Truth)
	if err != nil {
		t.Fatal(err)
	}
	back := NewDFTLOver(truth, 8, 2)
	if err := back.RestoreState(dst); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.State(), dst) {
		t.Fatal("a DFTL rebuilt over its restored truth map reports a different State")
	}
	back.Unmap(1)
	if ppa, ok := d.Lookup(1); !ok || ppa != g.PPAOf(9) || dst.Truth.Forward[1] < 0 {
		t.Fatal("unmapping through the restored DFTL wrote through to the snapshot")
	}
}

// TestDerivedReverseMatchesFresh: a restored page map and a DFTL over a
// restored truth map run in lock-step with the NewPageMap whose history they
// were restored from, all three replaying the same seeded random Map, Unmap
// and LPNAt operations — remaps onto the page an LPN already holds and
// Unmaps of unmapped LPNs among them, and per seed a different first
// operation after the restore (LPNAt, a no-op remap, a no-op Unmap, a real
// Map, a real Unmap). After every operation all three agree with the test's
// own two-way table on Lookup of every LPN, LPNAt of every page and Mapped,
// and with each other on RAMBytes. While a map has not built its reverse
// column, LPNAt is asked of a throwaway map over the same forward column, so
// the checking never decides when the column is built.
func TestDerivedReverseMatchesFresh(t *testing.T) {
	g := ftlGeo()
	const nLPNs = 64
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// The model: page of each LPN and LPN of each page, -1 for none.
		page, owner := make([]int, nLPNs), make([]int, g.Pages())
		for i := range page {
			page[i] = -1
		}
		for i := range owner {
			owner[i] = -1
		}
		mapped := 0
		// pick returns a random LPN whose mapped state is want, or -1.
		pick := func(want bool) int {
			for _, lpn := range rng.Perm(nLPNs) {
				if (page[lpn] >= 0) == want {
					return lpn
				}
			}
			return -1
		}
		const (
			lpnAt = iota
			remapSame
			unmapUnmapped
			mapNew
			unmapMapped
			kinds
		)
		// op draws one operation, applies it to the model and to every map
		// given, and describes it.
		op := func(kind int, maps ...Mapper) string {
			switch kind {
			case lpnAt:
				ppa := g.PPAOf(rng.Intn(g.Pages()))
				for _, m := range maps {
					m.LPNAt(ppa)
				}
				return fmt.Sprintf("LPNAt(%v)", ppa)
			case remapSame, mapNew:
				lpn := pick(true)
				idx := page[max(lpn, 0)]
				if kind == mapNew || lpn < 0 {
					lpn, idx = rng.Intn(nLPNs), rng.Intn(g.Pages())
					for owner[idx] >= 0 {
						idx = (idx + 1) % g.Pages() // a real allocator never double-books a page
					}
				}
				for _, m := range maps {
					m.Map(iface.LPN(lpn), g.PPAOf(idx))
				}
				if page[lpn] < 0 {
					mapped++
				} else {
					owner[page[lpn]] = -1
				}
				page[lpn], owner[idx] = idx, lpn
				return fmt.Sprintf("Map(%d, page %d)", lpn, idx)
			default:
				lpn := pick(kind == unmapMapped)
				for _, m := range maps {
					m.Unmap(iface.LPN(lpn))
				}
				if lpn >= 0 && page[lpn] >= 0 {
					owner[page[lpn]], page[lpn] = -1, -1
					mapped--
				}
				return fmt.Sprintf("Unmap(%d)", lpn)
			}
		}
		ref := NewPageMap(g, nLPNs)
		for i, n := 0, 20+rng.Intn(200); i < n; i++ {
			op(rng.Intn(kinds), ref)
		}
		st := ref.State()
		restore := func() *PageMap {
			pm, err := RestorePageMap(g, nLPNs, st)
			if err != nil {
				t.Fatal(err)
			}
			return pm
		}
		pm := restore()
		d := NewDFTLOver(restore(), 8, 2)
		check := func(step int, what string) {
			t.Helper()
			for _, c := range []struct {
				name string
				m    *PageMap
			}{{"fresh", ref}, {"restored", pm}, {"DFTL truth", d.truth}} {
				name, m := c.name, c.m
				if m.Mapped() != mapped || m.RAMBytes() != ref.RAMBytes() {
					t.Fatalf("seed %d step %d %s: %s map: Mapped %d RAMBytes %d, want %d %d",
						seed, step, what, name, m.Mapped(), m.RAMBytes(), mapped, ref.RAMBytes())
				}
				probe := m
				if m.reverse == nil {
					probe = &PageMap{geo: m.geo, forward: m.forward, mapped: m.mapped}
				}
				for lpn, idx := range page {
					got, ok := m.Lookup(iface.LPN(lpn))
					if ok != (idx >= 0) || (ok && got != g.PPAOf(idx)) {
						t.Fatalf("seed %d step %d %s: %s map: Lookup(%d) = %v %v, want page %d", seed, step, what, name, lpn, got, ok, idx)
					}
				}
				for idx, lpn := range owner {
					got, ok := probe.LPNAt(g.PPAOf(idx))
					if ok != (lpn >= 0) || (ok && got != iface.LPN(lpn)) {
						t.Fatalf("seed %d step %d %s: %s map: LPNAt(page %d) = %v %v, want LPN %d", seed, step, what, name, idx, got, ok, lpn)
					}
				}
			}
		}
		check(0, "restore")
		check(1, op(int(seed)%kinds, ref, pm, d))
		for step := 2; step < 400; step++ {
			check(step, op(rng.Intn(kinds), ref, pm, d))
		}
		if !reflect.DeepEqual(d.truth.State(), ref.State()) || !reflect.DeepEqual(pm.State(), ref.State()) {
			t.Fatalf("seed %d: the restored maps' State differs from the fresh map's", seed)
		}
	}
}

// TestDFTLRestoreCarvesEntriesFromOneSlab: RestoreState allocates the cached
// mappings' entries in one slab, so a restore of n entries costs one list
// element per entry and a few allocations besides, not two per entry. The
// restored DFTL then runs in lock-step with the one it was restored from
// through a seeded run of hits, misses that evict and reuse a restored entry,
// writes and trims, and both report the same State after every operation.
func TestDFTLRestoreCarvesEntriesFromOneSlab(t *testing.T) {
	g := ftlGeo()
	const nLPNs, capacity = 64, 32
	src := NewDFTL(g, nLPNs, capacity, 2)
	for lpn := 0; lpn < nLPNs; lpn++ {
		src.Access(iface.LPN(lpn), lpn%3 == 0)
		src.Map(iface.LPN(lpn), g.PPAOf(lpn))
	}
	st := src.State()
	if len(st.CMT) != capacity {
		t.Fatalf("the cache holds %d entries, want %d", len(st.CMT), capacity)
	}
	truth, err := RestorePageMap(g, nLPNs, st.Truth)
	if err != nil {
		t.Fatal(err)
	}
	back := NewDFTLOver(truth, capacity, 2)
	allocs := testing.AllocsPerRun(10, func() {
		if err := back.RestoreState(st); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(capacity + capacity/4); allocs > limit {
		t.Fatalf("RestoreState of %d entries made %.0f allocations, want at most %.0f", capacity, allocs, limit)
	}
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 2000; step++ {
		lpn := iface.LPN(rng.Intn(nLPNs))
		switch op := rng.Intn(8); {
		case op == 0:
			src.Unmap(lpn)
			back.Unmap(lpn)
		default:
			write := op < 4
			a, b := fmt.Sprint(src.Access(lpn, write)), fmt.Sprint(back.Access(lpn, write))
			if a != b {
				t.Fatalf("step %d: Access(%d) = %s from the source, %s from the restore", step, lpn, a, b)
			}
			if write {
				ppa := g.PPAOf(rng.Intn(g.Pages()))
				if _, ok := src.LPNAt(ppa); ok {
					continue // the page is taken; map nothing this step
				}
				src.Map(lpn, ppa)
				back.Map(lpn, ppa)
			}
		}
		if !reflect.DeepEqual(src.State(), back.State()) {
			t.Fatalf("step %d: the restored DFTL's State departs from its source's", step)
		}
	}
}
