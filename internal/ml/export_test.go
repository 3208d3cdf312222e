package ml

// Hooks for serving_test.go, an external test: it imports core, which
// imports ml, to hold the benchmark's own serving forests to the
// reference walk.

var (
	CheckMatchesPointer = checkMatchesPointer
	ThresholdProbe      = thresholdProbe
)

// Scans reports whether f predicts by the threshold scan.
func (f *Forest) Scans() bool { return f.scan != nil }
