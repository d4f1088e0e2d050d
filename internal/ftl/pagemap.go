package ftl

import (
	"eagletree/internal/flash"
	"eagletree/internal/iface"
)

// PageMap is the most flexible mapping scheme: a full page-level map held
// entirely in controller RAM. Any logical page can be bound to any physical
// page, and accesses never touch flash for metadata.
//
// The forward column is the ground truth. The reverse column is an index over
// it, built from it at the first LPNAt and kept by Map and Unmap from then on,
// so a stack that never collects garbage never builds it. A restored map
// adopts the snapshot's forward column (shared) and copies it on the first
// Map or Unmap, so stacks that only read share one table.
type PageMap struct {
	geo     flash.Geometry
	forward []int32 // LPN -> dense page index, -1 if unmapped
	reverse []int64 // dense page index -> LPN, -1 if none; nil until LPNAt
	mapped  int
	shared  bool
}

// NewPageMap builds an empty page map for nLPNs logical pages over geometry
// geo. nLPNs is the exported (logical) capacity, smaller than the physical
// page count by the overprovisioning factor.
func NewPageMap(geo flash.Geometry, nLPNs int) *PageMap {
	pm := &PageMap{geo: geo, forward: make([]int32, nLPNs)}
	for i := range pm.forward {
		pm.forward[i] = -1
	}
	return pm
}

// own gives the map a private forward column before its first mutation. Out
// of line and unannotated: Map and Unmap pay one predictable branch.
func (pm *PageMap) own() {
	pm.forward = append([]int32(nil), pm.forward...)
	pm.shared = false
}

// derive builds the reverse column from the forward one. Out of line and
// unannotated, like own: LPNAt pays one predictable branch.
func (pm *PageMap) derive() {
	pm.reverse = make([]int64, pm.geo.Pages())
	for i := range pm.reverse {
		pm.reverse[i] = -1
	}
	for lpn, idx := range pm.forward {
		if idx >= 0 {
			pm.reverse[idx] = int64(lpn)
		}
	}
}

// Name implements Mapper.
func (pm *PageMap) Name() string { return "pagemap" }

// LPNs returns the logical capacity in pages.
func (pm *PageMap) LPNs() int { return len(pm.forward) }

// Mapped returns how many logical pages currently have a physical binding.
func (pm *PageMap) Mapped() int { return pm.mapped }

// Access implements Mapper: RAM-resident, so no metadata flash ops.
func (pm *PageMap) Access(iface.LPN, bool) []TransOp { return nil }

// Lookup implements Mapper.
//
//eagletree:hotpath
func (pm *PageMap) Lookup(lpn iface.LPN) (flash.PPA, bool) {
	if lpn < 0 || int(lpn) >= len(pm.forward) {
		return flash.PPA{}, false
	}
	idx := pm.forward[lpn]
	if idx < 0 {
		return flash.PPA{}, false
	}
	return pm.geo.PPAOf(int(idx)), true
}

// Map implements Mapper. Remapping an LPN onto the physical page it already
// occupies reports no old binding: the page holds the fresh data, so there is
// nothing to invalidate.
//
//eagletree:hotpath
func (pm *PageMap) Map(lpn iface.LPN, ppa flash.PPA) (flash.PPA, bool) {
	newIdx := pm.geo.Index(ppa)
	oldIdx := pm.forward[lpn]
	if int(oldIdx) == newIdx {
		return flash.PPA{}, false
	}
	if pm.shared {
		pm.own()
	}
	pm.forward[lpn] = int32(newIdx)
	if pm.reverse != nil {
		pm.reverse[newIdx] = int64(lpn)
		if oldIdx >= 0 {
			pm.reverse[oldIdx] = -1
		}
	}
	if oldIdx < 0 {
		pm.mapped++
		return flash.PPA{}, false
	}
	return pm.geo.PPAOf(int(oldIdx)), true
}

// Unmap implements Mapper.
//
//eagletree:hotpath
func (pm *PageMap) Unmap(lpn iface.LPN) (flash.PPA, bool) {
	if lpn < 0 || int(lpn) >= len(pm.forward) {
		return flash.PPA{}, false
	}
	oldIdx := pm.forward[lpn]
	if oldIdx < 0 {
		return flash.PPA{}, false
	}
	if pm.shared {
		pm.own()
	}
	pm.forward[lpn] = -1
	if pm.reverse != nil {
		pm.reverse[oldIdx] = -1
	}
	pm.mapped--
	return pm.geo.PPAOf(int(oldIdx)), true
}

// LPNAt implements Mapper.
//
//eagletree:hotpath
func (pm *PageMap) LPNAt(ppa flash.PPA) (iface.LPN, bool) {
	if pm.reverse == nil {
		pm.derive()
	}
	lpn := pm.reverse[pm.geo.Index(ppa)]
	if lpn < 0 {
		return 0, false
	}
	return iface.LPN(lpn), true
}

// RAMBytes implements Mapper: 4 bytes per forward entry plus 8 per physical
// page for the reverse column — the cost the paper contrasts against DFTL's
// cached table. Charged by geometry, whether or not the column is built yet.
func (pm *PageMap) RAMBytes() int64 {
	return int64(len(pm.forward))*4 + int64(pm.geo.Pages())*8
}
