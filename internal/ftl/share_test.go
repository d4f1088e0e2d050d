package ftl

import (
	"errors"
	"reflect"
	"testing"

	"eagletree/internal/flash"
	"eagletree/internal/iface"
)

// TestRestoredPageMapSharesUntilMutation: RestorePageMap adopts the
// snapshot's two columns; Map and Unmap — each as the restored map's first
// mutation — copy them first. No-op calls (remapping onto the same page,
// unmapping an unmapped LPN) copy nothing. The snapshot and a second map
// restored from it never see the mutation.
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
	} {
		t.Run(op.name, func(t *testing.T) {
			pm, reader := restore(), restore()
			if !pm.shared || &pm.forward[0] != &st.Forward[0] || &pm.reverse[0] != &st.Reverse[0] {
				t.Fatal("RestorePageMap copied the columns instead of adopting them")
			}
			op.noop(pm)
			if !pm.shared {
				t.Fatal("a call that changes nothing copied the columns")
			}
			op.mutate(pm)
			if pm.shared || &pm.forward[0] == &st.Forward[0] || &pm.reverse[0] == &st.Reverse[0] {
				t.Fatal("the map still shares the snapshot's columns after mutating")
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
			if ppa, ok := reader.Lookup(3); !ok || ppa != g.PPAOf(3) || !reader.shared {
				t.Fatalf("a second map restored from the snapshot reads %v, %v for LPN 3", ppa, ok)
			}
			if !reflect.DeepEqual(reader.State(), want) {
				t.Fatal("the second map's State differs from the snapshot")
			}
		})
	}
}

// TestRestorePageMapRejectsShape: the LPN count is checked against the
// configured logical capacity and the physical count against the geometry.
func TestRestorePageMapRejectsShape(t *testing.T) {
	g := ftlGeo()
	st := NewPageMap(g, 64).State()
	if _, err := RestorePageMap(g, 63, st); !errors.Is(err, ErrStateMismatch) {
		t.Errorf("one LPN short: err = %v, want ErrStateMismatch", err)
	}
	bigger := flash.Geometry{Channels: 2, LUNsPerChannel: 2, BlocksPerLUN: 9, PagesPerBlock: 4, PageSize: 4096}
	if _, err := RestorePageMap(bigger, 64, st); !errors.Is(err, ErrStateMismatch) {
		t.Errorf("a geometry with more pages: err = %v, want ErrStateMismatch", err)
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
