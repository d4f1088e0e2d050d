package experiment

import (
	"context"
	"testing"
)

// End-to-end full-scale benchmarks: each iteration runs one complete
// -scale full experiment — preparation, every variant, report generation —
// with no shared prepared-state cache, so ns/op is the honest wall-clock
// cost a user pays for `eagletree sweep -run eN -scale full`. benchgate
// gates them in the CI full-scale job against BENCH_BASELINE.json budgets;
// they are the regression tripwire for the data-layer restructure (SoA
// flash columns, constant-cost victim search, classed dispatch).
//
// The guarded experiments cover the distinct full-scale cost shapes:
// E4 is GC/wear-leveling bound (victim selection and migration dominate),
// E8 is stream/temperature bound (write-readiness classing dominates), and
// E13 replays the aged-file-system trace (mixed read path with mapping
// churn). E2 and E10 hold the two per-IO host costs that must not grow with
// queue depth or history: E2's deadline variant sweeps the awake wait-classes
// twice a pop, E10's interleaving variants slot every command and transfer
// into a channel's reservation timeline between two prunes.

func benchFullExperiment(b *testing.B, def Definition) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(Options{Workers: 1}).Run(context.Background(), def); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullScaleE2(b *testing.B)  { benchFullExperiment(b, suiteDef(b, "e2", Full)) }
func BenchmarkFullScaleE4(b *testing.B)  { benchFullExperiment(b, suiteDef(b, "e4", Full)) }
func BenchmarkFullScaleE8(b *testing.B)  { benchFullExperiment(b, suiteDef(b, "e8", Full)) }
func BenchmarkFullScaleE10(b *testing.B) { benchFullExperiment(b, suiteDef(b, "e10", Full)) }
func BenchmarkFullScaleE13(b *testing.B) { benchFullExperiment(b, suiteDef(b, "e13", Full)) }
