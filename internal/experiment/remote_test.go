package experiment_test

import (
	"context"
	"errors"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"

	"eagletree/internal/experiment"
	"eagletree/internal/fabric"
)

// TestFabricDecodesWhereRestored: a fabric coordinator serving every
// prepared state from a warm disk cache decodes none of them — it checks
// their seals — and the in-process worker that restores them decodes each
// distinct state exactly once. Decodes are told apart by the bytes they
// read: each side's cache keeps the slice it was handed.
func TestFabricDecodesWhereRestored(t *testing.T) {
	ctx := context.Background()
	doc, ok := experiment.SuiteSpec("e8", experiment.Small) // three variants over two prepared states
	if !ok {
		t.Fatal("no suite experiment e8")
	}
	def, err := experiment.FromSpec(doc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	want, err := experiment.New(experiment.Options{Workers: 1, Cache: experiment.NewStateCache(dir)}).Run(ctx, def)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	decodes := map[*byte]int{}
	total := 0
	experiment.OnDecode(t, func(data []byte) {
		mu.Lock()
		defer mu.Unlock()
		total++
		if len(data) > 0 {
			decodes[&data[0]]++
		}
	})
	coord, worker := experiment.NewStateCache(dir), experiment.NewStateCache("")
	coordSide, workerSide := net.Pipe()
	served := make(chan error, 1)
	go func() {
		served <- fabric.Serve(ctx, workerSide, workerSide, fabric.WorkerOptions{Cache: worker})
		workerSide.Close()
	}()
	keys := map[string]bool{}
	misses := 0
	got, err := fabric.Run(ctx, doc, fabric.Options{Conns: []io.ReadWriteCloser{coordSide}, Cache: coord,
		Observer: experiment.ObserverFunc(func(ev experiment.Event) {
			switch ev.Kind {
			case experiment.EventPrepareMiss:
				misses++
				keys[ev.CacheKey] = true
			case experiment.EventPrepareHit:
				keys[ev.CacheKey] = true
			}
		})})
	coordSide.Close()
	if err := <-served; err != nil && !errors.Is(err, io.ErrClosedPipe) {
		t.Fatal(err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("distributed rows differ from the in-process run:\nin-process: %+v\nfabric:     %+v", want, got)
	}
	if len(keys) != 2 || misses != 0 {
		t.Fatalf("%d prepared states, %d built by the worker; want 2, all served from the coordinator's disk", len(keys), misses)
	}
	for key := range keys {
		c, ok := coord.Peek(key)
		w, wok := worker.Peek(key)
		if !ok || !wok {
			t.Fatalf("coordinator holds the state: %v, worker: %v", ok, wok)
		}
		if n := decodes[&c[0]]; n != 0 {
			t.Errorf("the coordinator decoded a state it only serves %d times, want 0", n)
		}
		if n := decodes[&w[0]]; n != 1 {
			t.Errorf("the worker decoded a state it restores %d times, want 1", n)
		}
	}
	if total != len(keys) {
		t.Errorf("%d decodes across the sweep, want %d: one per distinct state, at the worker", total, len(keys))
	}
}
