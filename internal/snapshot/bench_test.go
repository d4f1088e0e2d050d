package snapshot_test

import (
	"sync"
	"testing"

	"eagletree/internal/controller"
	"eagletree/internal/core"
	"eagletree/internal/flash"
	"eagletree/internal/osched"
	"eagletree/internal/snapshot"
	"eagletree/internal/workload"
)

// The restore-path benchmarks run on the 2 GiB-class device the end-to-end
// benchmark's warm_restore workload uses (4×4 LUNs, 512 blocks of 64 4 KiB
// pages: 524 288 physical pages, a 2.0 MB snapshot), filled and then
// overwritten once so the page map is dense and garbage collection has run.

func benchCfg() core.Config {
	return core.Config{
		Controller: controller.Config{
			Geometry:      flash.Geometry{Channels: 4, LUNsPerChannel: 4, BlocksPerLUN: 512, PagesPerBlock: 64, PageSize: 4096},
			Overprovision: 0.15,
			GCGreediness:  2,
			WL:            controller.WLOff(),
		},
		OS:   osched.Config{QueueDepth: 32},
		Seed: 7,
	}
}

var benchAged = sync.OnceValue(func() []byte {
	st, err := core.New(benchCfg())
	if err != nil {
		panic(err)
	}
	n := int64(st.LogicalPages())
	fill := st.Add(&workload.SequentialWriter{From: 0, Count: n, Depth: 32})
	st.Add(&workload.RandomWriter{From: 0, Space: n, Count: n, Depth: 32}, fill)
	st.Run()
	ds, err := st.Snapshot()
	if err != nil {
		panic(err)
	}
	return snapshot.Encode(ds)
})

// BenchmarkSnapshotDecode is one prepared device's bytes to its decoded state: what
// a state cache pays once per key.
func BenchmarkSnapshotDecode(b *testing.B) {
	data := benchAged()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snapshot.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestoreWarm decodes once and restores b.N stacks from the one
// decoded state: what every variant of a sweep pays. Nothing writes, so the
// big columns stay shared and allocation is the small state only.
func BenchmarkRestoreWarm(b *testing.B) {
	ds, err := snapshot.Decode(benchAged())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Restore(benchCfg(), ds); err != nil {
			b.Fatal(err)
		}
	}
}
