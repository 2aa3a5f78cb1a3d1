//go:build !purego

package tensor

import (
	"math"
	"testing"
)

// goExpNoFMA is Go's math.Exp on a CPU without FMA (expgo_amd64_test.s).
func goExpNoFMA(x float64) float64

// TestExpPortMatchesGoNoFMA is the derivation of this package's exp bits:
// expScalar equals Go's own exp_amd64.s on its non-FMA path, bit for bit, on
// over a million inputs, specials included. Go's math.Exp takes the other
// path on a CPU with FMA, up to 2 ulp away; expScalar is the same function
// on every CPU.
func TestExpPortMatchesGoNoFMA(t *testing.T) {
	xs := expInputs(1 << 20)
	bad := 0
	for _, x := range xs {
		got, want := expScalar(x), goExpNoFMA(x)
		if math.Float64bits(got) != math.Float64bits(want) {
			if bad++; bad <= 5 {
				t.Errorf("expScalar(%v = %#x) = %#x, Go's non-FMA assembly %#x", x, math.Float64bits(x), math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d inputs differ", bad, len(xs))
	}
	t.Logf("%d inputs, 0 mismatches", len(xs))
}
