package flash

import (
	"fmt"
	"testing"

	"eagletree/internal/sim"
)

func TestResourceTailSerializes(t *testing.T) {
	var r resource
	s1 := r.reserveTail(0, 100)
	s2 := r.reserveTail(0, 100)
	s3 := r.reserveTail(50, 100)
	if s1 != 0 || s2 != 100 || s3 != 200 {
		t.Fatalf("tail starts = %v %v %v, want 0 100 200", s1, s2, s3)
	}
	if r.freeAt() != 300 {
		t.Fatalf("freeAt = %v, want 300", r.freeAt())
	}
}

func TestResourceTailRespectsRequestTime(t *testing.T) {
	var r resource
	if s := r.reserveTail(500, 10); s != 500 {
		t.Fatalf("idle tail reservation started at %v, want 500", s)
	}
}

func TestResourceEarliestFillsGap(t *testing.T) {
	var r resource
	r.reserveTail(0, 100)   // [0,100)
	r.reserveTail(300, 100) // [300,400)
	s := r.reserveEarliest(0, 50)
	if s != 100 {
		t.Fatalf("gap reservation started at %v, want 100", s)
	}
	// The gap [150,300) still has 150 units; a 200-unit op must go after 400.
	s2 := r.reserveEarliest(0, 200)
	if s2 != 400 {
		t.Fatalf("oversized op started at %v, want 400", s2)
	}
}

func TestResourceEarliestHonorsAt(t *testing.T) {
	var r resource
	r.reserveTail(0, 100)   // [0,100)
	r.reserveTail(200, 100) // [200,300)
	// Gap [100,200) exists, but the op cannot start before 150.
	s := r.reserveEarliest(150, 50)
	if s != 150 {
		t.Fatalf("clamped gap reservation started at %v, want 150", s)
	}
}

func TestResourceEarliestKeepsSortedNonOverlapping(t *testing.T) {
	var r resource
	rng := sim.NewRNG(99)
	for i := 0; i < 500; i++ {
		at := sim.Time(rng.Intn(10000))
		d := sim.Duration(rng.Intn(50) + 1)
		if rng.Intn(2) == 0 {
			r.reserveEarliest(at, d)
		} else {
			r.reserveTail(at, d)
		}
	}
	for i := 1; i < len(r.intervals); i++ {
		prev, cur := r.intervals[i-1], r.intervals[i]
		if cur.start < prev.end {
			t.Fatalf("intervals overlap or unsorted at %d: %v then %v", i, prev, cur)
		}
	}
}

func TestResourcePrune(t *testing.T) {
	var r resource
	r.reserveTail(0, 100)
	r.reserveTail(0, 100)
	r.reserveTail(0, 100)
	r.prune(150)
	if len(r.intervals) != 2 {
		t.Fatalf("after prune(150): %d intervals, want 2", len(r.intervals))
	}
	if r.freeAt() != 300 {
		t.Fatalf("prune changed tail: freeAt = %v", r.freeAt())
	}
}

func TestResourceBusyAt(t *testing.T) {
	var r resource
	r.reserveTail(100, 50) // [100,150)
	cases := map[sim.Time]bool{99: false, 100: true, 149: true, 150: false}
	for at, want := range cases {
		if got := r.busyAt(at); got != want {
			t.Errorf("busyAt(%v) = %v, want %v", at, got, want)
		}
	}
}

// linearReserveEarliest is reserveEarliest as it was before the search skipped
// history: every interval from index 0, one gap at a time. It is kept as the
// obviously-correct reference the binary-searched version must reproduce.
func linearReserveEarliest(r *resource, at sim.Time, d sim.Duration) sim.Time {
	prevEnd := sim.Time(0)
	for i, iv := range r.intervals {
		gapStart := prevEnd
		if gapStart < at {
			gapStart = at
		}
		if iv.start >= gapStart && iv.start.Sub(gapStart) >= d {
			r.insert(i, interval{gapStart, gapStart.Add(d)})
			return gapStart
		}
		prevEnd = iv.end
	}
	start := prevEnd
	if start < at {
		start = at
	}
	r.intervals = append(r.intervals, interval{start, start.Add(d)})
	return start
}

func linearPrune(r *resource, now sim.Time) {
	keep := 0
	for _, iv := range r.intervals {
		if iv.end > now {
			r.intervals[keep] = iv
			keep++
		}
	}
	r.intervals = r.intervals[:keep]
}

func linearBusyAt(r *resource, t sim.Time) bool {
	for _, iv := range r.intervals {
		if iv.start <= t && t < iv.end {
			return true
		}
	}
	return false
}

// TestReserveEarliestMatchesLinearScan drives the reference and the real
// resource through the same seeded sequences shaped like an interleaved
// channel's life: a clock that mostly advances, requests both at the clock and
// ahead of it (a read's transfer is reserved at senseEnd, so the next command's
// `at` is earlier than the last one's), tail reservations, prunes at the clock,
// durations from zero up so that abutting and zero-length intervals occur.
// Start times, busyAt and the interval lists must agree after every operation.
func TestReserveEarliestMatchesLinearScan(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		rng := sim.NewRNG(seed)
		var ref, got resource
		now := sim.Time(0)
		for op := 0; op < 10000; op++ {
			now = now.Add(sim.Duration(rng.Intn(12)))
			at := now
			if rng.Intn(3) == 0 {
				at = now.Add(sim.Duration(rng.Intn(60))) // ahead of the clock
			}
			d := sim.Duration(rng.Intn(8)) // 0 included
			if rng.Intn(4) == 0 {
				d = sim.Duration(1 + rng.Intn(40))
			}
			var want, have sim.Time
			switch k := rng.Intn(20); {
			case k < 13:
				want, have = linearReserveEarliest(&ref, at, d), got.reserveEarliest(at, d)
			case k < 17:
				want, have = ref.reserveTail(at, d), got.reserveTail(at, d)
			case k < 18:
				linearPrune(&ref, now)
				got.prune(now)
			default:
				probe := now.Add(sim.Duration(rng.Intn(80)) - 20)
				if w, h := linearBusyAt(&ref, probe), got.busyAt(probe); w != h {
					t.Fatalf("seed %d op %d: busyAt(%v) = %v, linear scan says %v", seed, op, probe, h, w)
				}
			}
			if want != have {
				t.Fatalf("seed %d op %d: reservation at %v for %v started %v, linear scan started %v", seed, op, at, d, have, want)
			}
			if len(ref.intervals) != len(got.intervals) {
				t.Fatalf("seed %d op %d: %d intervals, linear scan has %d", seed, op, len(got.intervals), len(ref.intervals))
			}
			for i := range ref.intervals {
				if ref.intervals[i] != got.intervals[i] {
					t.Fatalf("seed %d op %d: interval %d is %v, linear scan has %v", seed, op, i, got.intervals[i], ref.intervals[i])
				}
			}
		}
	}
}

var benchStart sim.Time

// BenchmarkReserveEarliestHistory reserves behind a run of expired intervals —
// an interleaved channel between two prunes, which happen once per 2048
// completions. ns/op must not scale with the history's length.
func BenchmarkReserveEarliestHistory(b *testing.B) {
	for _, history := range []int{64, 2048} {
		b.Run(fmt.Sprint(history), func(b *testing.B) {
			var r resource
			for i := 0; i < history; i++ {
				r.reserveTail(sim.Time(i*10), 5)
			}
			at := r.freeAt().Add(100)
			r.reserveTail(at.Add(50), 5) // one live reservation to slot in front of
			n := len(r.intervals)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchStart = r.reserveEarliest(at, 5)
				copy(r.intervals[n-1:], r.intervals[n:])
				r.intervals = r.intervals[:n]
			}
		})
	}
}
