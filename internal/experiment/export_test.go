package experiment

import "eagletree/internal/core"

// OnDecode is onDecode for the package's external tests.
var OnDecode = onDecode

// RunConfig is the configuration the Runner resolves to run a variant.
var RunConfig = Definition.config

// onMeasure points the Runner's measurement-epoch seam at f until the
// returned function clears it.
func onMeasure(f func(i int, s *core.Stack)) (clear func()) {
	atMeasurement = f
	return func() { atMeasurement = nil }
}
