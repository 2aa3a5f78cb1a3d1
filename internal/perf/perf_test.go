package perf

import (
	"testing"
	"testing/quick"
)

func TestEfficiencyMonotonicAndBounded(t *testing.T) {
	f := func(seed uint64) bool {
		x := float64(1 + seed%100000)
		y := x * 2
		ex, ey := MatmulEfficiency(x), MatmulEfficiency(y)
		return ex > 0 && ex < 1 && ey >= ex
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if MatmulEfficiency(0) != 0 || MatmulEfficiency(-5) != 0 {
		t.Fatal("non-positive tokens should give zero efficiency")
	}
}

func TestEfficiencyCalibrationPoints(t *testing.T) {
	// The curve was calibrated so MBS 1 vs MBS 4 at TP8 (256 vs 1024
	// tokens/rank) differ by roughly the paper's Fig. 6 separation (~8%).
	r := MatmulEfficiency(256) / MatmulEfficiency(1024)
	if r < 0.88 || r > 0.96 {
		t.Fatalf("256/1024 token efficiency ratio %v, want ≈0.92", r)
	}
}

func TestRingAllReduce(t *testing.T) {
	if RingAllReduceTime(0, 8, 100, 1e-6) != 0 {
		t.Fatal("zero bytes should cost zero")
	}
	if RingAllReduceTime(1e9, 1, 100, 1e-6) != 0 {
		t.Fatal("single participant should cost zero")
	}
	// 2(n-1)/n factor: for large n, ≈ 2×bytes/bw.
	got := RingAllReduceTime(1e9, 1000, 100, 0)
	want := 2 * 0.999 * 1e9 / 100e9
	if diff := got - want; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("ring allreduce %v want %v", got, want)
	}
}

func TestNVSwitchBeatsRing(t *testing.T) {
	ring := RingAllReduceTime(1e8, 8, 450, 3e-6)
	nvls := NVSwitchAllReduceTime(1e8, 8, 450, 3e-6)
	if nvls >= ring {
		t.Fatalf("NVLS (%v) should beat ring (%v)", nvls, ring)
	}
}

func TestP2PTime(t *testing.T) {
	p := P2PTime(50e6, 50, 8e-6)
	if p < 1e-3 || p > 1.2e-3 {
		t.Fatalf("p2p of 50MB over 50GB/s = %v, want ≈1ms", p)
	}
	if P2PTime(0, 50, 8e-6) != 0 {
		t.Fatal("zero bytes p2p should be free")
	}
}

func TestH100Spec(t *testing.T) {
	d := H100()
	if d.PeakTFLOPS != 989 || d.HBMBytes != 80e9 {
		t.Fatalf("H100 spec wrong: %+v", d)
	}
	c := EOS()
	if c.GPUsPerNode != 8 {
		t.Fatalf("EOS nodes have %d GPUs", c.GPUsPerNode)
	}
}

func TestEffectiveBandwidthShare(t *testing.T) {
	if EffectiveBandwidthShare(100, 4) != 25 {
		t.Fatal("bandwidth share wrong")
	}
	if EffectiveBandwidthShare(100, 0) != 100 {
		t.Fatal("degenerate share wrong")
	}
}
