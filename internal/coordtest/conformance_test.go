package coordtest

import "testing"

// TestConformance runs the shared suite against every registered
// backend.
func TestConformance(t *testing.T) {
	for _, b := range Backends() {
		t.Run(b.Name, func(t *testing.T) { Conformance(t, b) })
	}
}
