package obs

import "testing"

func TestPoolHitPct(t *testing.T) {
	s := StepSample{PoolHit: 3, PoolMiss: 1}
	if got := s.PoolHitPct(); got != 75 {
		t.Fatalf("PoolHitPct = %v, want 75", got)
	}
	zero := StepSample{}
	if got := zero.PoolHitPct(); got != 0 {
		t.Fatalf("PoolHitPct of empty sample = %v, want 0", got)
	}
}
