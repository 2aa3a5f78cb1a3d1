package collective

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/tensor"
)

// TestWireDTypeBytesPerAllReduce pins what a gradient wire encoding buys in
// traffic: one bucketed ring all-reduce of 1<<18 elements over four TCP
// endpoints, every data frame encoded as the mesh's dtype, payload bytes read
// off the transport's send counters. The ring ships the same 24 chunks under
// every encoding, so f32 is exactly half of f64, and int8q is one byte per
// element plus an 8-byte scale per chunk — an eighth, within 1%. Rank r
// contributes the constant r+1: integer sums are exact in f64 and f32, and
// int8q, lossy by design, lands within 1%.
func TestWireDTypeBytesPerAllReduce(t *testing.T) {
	const n, elems = 4, 1 << 18
	want := float64(n * (n + 1) / 2)
	sent := map[dist.DType]int64{}
	for _, dt := range []dist.DType{dist.DTF64, dist.DTF32, dist.DTInt8Q} {
		mesh, err := dist.NewLocalMesh(n, dist.Options{DType: dt})
		if err != nil {
			t.Fatal(err)
		}
		outs := runGroupOn(t, mesh, n, func(c *Communicator) (*tensor.Tensor, error) {
			buf := tensor.New(elems)
			for i := range buf.Data() {
				buf.Data()[i] = float64(c.Rank() + 1)
			}
			return buf, c.AllReduceBucketsInPlace([]*tensor.Tensor{buf}, OpSum, DefaultBucketBytes)
		})
		_, sent[dt] = mesh.SendCount()
		mesh.Close()
		tol := 0.0
		if dt == dist.DTInt8Q {
			tol = 0.01 * want
		}
		for r, out := range outs {
			for i, v := range out.Data() {
				if math.Abs(v-want) > tol {
					t.Fatalf("%s: rank %d element %d = %v, want %v within %v", dt, r, i, v, want, tol)
				}
			}
		}
	}
	f64, f32, q := sent[dist.DTF64], sent[dist.DTF32], sent[dist.DTInt8Q]
	t.Logf("wire payload bytes per all-reduce: f64 %d, f32 %d, int8q %d", f64, f32, q)
	if ring := int64(2 * (n - 1) * elems * bytesPerElem); f64 != ring {
		t.Errorf("f64 moved %d B, want the ring volume 2(n-1)/n x n x %d B = %d", f64, elems*bytesPerElem, ring)
	}
	if f32*2 != f64 {
		t.Errorf("f32 moved %d B against f64's %d, want exactly half", f32, f64)
	}
	if q < f64/8 || float64(q) > 1.01*float64(f64)/8 {
		t.Errorf("int8q moved %d B against f64's %d, want an eighth plus at most 1%% of scales", q, f64)
	}
}
