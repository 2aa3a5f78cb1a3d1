package dist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The oracle: the int8q quantizer as it was spelled before it became slice
// kernels — per-element math.IsNaN/IsInf/Round — kept here as the reference
// the kernels must equal bit for bit.

func oracleScale(data []float64) float64 {
	maxAbs := 0.0
	for _, v := range data {
		if a := math.Abs(v); a > maxAbs && !math.IsInf(v, 0) && !math.IsNaN(v) {
			maxAbs = a
		}
	}
	return maxAbs / 127
}

func oracleElem(v, scale float64) int8 {
	if math.IsNaN(v) || scale == 0 {
		return 0
	}
	q := math.Round(v / scale)
	if q > 127 {
		q = 127
	} else if q < -127 {
		q = -127
	}
	return int8(q)
}

// checkQuantKernel compares the fused kernel with the oracle over data, and
// again over data[cut:], an unaligned sub-slice: without a residual, and with
// the first len(data) elements of res carried in.
func checkQuantKernel(t *testing.T, data, res []float64, cut int) {
	t.Helper()
	cut = min(max(cut, 0), len(data))
	for _, d := range [][]float64{data, data[cut:]} {
		r := res[len(data)-len(d) : len(data)]
		checkQuantOnce(t, d, nil)
		checkQuantOnce(t, d, r)
	}
}

// checkQuantOnce holds quantizeInto and everything built on it to the oracle
// for one payload and residual (nil: none): error feedback is r += g; codes
// and scale of r on its own grid; r -= decoded. The kernel's scale and codes,
// what it leaves in the residual, the frame encodeFrame writes — which is
// EncodeFrame's frame of the folded values — and LossyRoundTrip's values and
// residual must all match bit for bit (any NaN matches any NaN: which payload
// a sum of NaNs carries is the compiler's operand order), and for a finite
// non-zero folded value with a finite decoded one, decoded + residual gives
// it back exactly (Sterbenz: the residual's subtraction is exact).
func checkQuantOnce(t *testing.T, data, res []float64) {
	t.Helper()
	bits := math.Float64bits
	same := func(a, b float64) bool { return bits(a) == bits(b) || (a != a && b != b) }
	v := slices.Clone(data)
	if res != nil {
		for i := range v {
			v[i] = res[i] + data[i]
		}
	}
	s := oracleScale(v)
	codes, wantR := make([]int8, len(v)), make([]float64, len(v))
	for i, x := range v {
		codes[i] = oracleElem(x, s)
		wantR[i] = x - float64(codes[i])*s
	}
	checkR := func(what string, got []float64) {
		t.Helper()
		if res == nil {
			if got != nil {
				t.Fatalf("%s: a nil residual came back as %v", what, got)
			}
			return
		}
		for i := range got {
			if !same(got[i], wantR[i]) {
				t.Fatalf("%s: elem %d (g %v r %v): residual %v (%#x), oracle %v (%#x)", what, i, data[i], res[i], got[i], bits(got[i]), wantR[i], bits(wantR[i]))
			}
			// Exact wherever the decoded value is finite: 127·s overflows
			// only for a maximum within a rounding of MaxFloat64.
			if d := float64(codes[i]) * s; !math.IsInf(v[i], 0) && !math.IsInf(d, 0) && v[i] == v[i] && v[i] != 0 && bits(d+got[i]) != bits(v[i]) {
				t.Fatalf("%s: elem %d: decoded %v + residual %v is not the folded %v", what, i, d, got[i], v[i])
			}
		}
	}

	dst := make([]byte, len(data)+1)
	dst[len(data)] = 0xAA
	r := slices.Clone(res)
	if got := quantizeInto(dst, data, r); bits(got) != bits(s) {
		t.Fatalf("quantizeInto scale %v (%#x), oracle %v (%#x)", got, bits(got), s, bits(s))
	}
	for i, x := range v {
		if int8(dst[i]) != codes[i] {
			t.Fatalf("elem %d (%v = %#x): code %d, oracle %d", i, x, bits(x), int8(dst[i]), codes[i])
		}
	}
	if dst[len(data)] != 0xAA {
		t.Fatalf("quantizeInto wrote past %d elements", len(data))
	}
	checkR("quantizeInto", r)

	// The frame codes the folded values, and is EncodeFrame's frame of them.
	h := Header{Kind: frameData, To: 1, DType: DTInt8Q, Shape: []int{len(data)}}
	r = slices.Clone(res)
	frame := encodeFrame(&h, data, r, false)
	want := EncodeFrame(&h, v, false)
	if !bytes.Equal(frame, want) {
		t.Fatalf("the frame of payload + residual differs from EncodeFrame's frame of the sum")
	}
	payload := frame[len(frame)-8-len(data):]
	if got := binary.LittleEndian.Uint64(payload); got != bits(s) {
		t.Fatalf("frame scale %#x, oracle %#x", got, bits(s))
	}
	if !bytes.Equal(payload[8:], dst[:len(data)]) {
		t.Fatal("frame codes differ from quantizeInto's")
	}
	checkR("encodeFrame", r)
	recycleFrameBuf(frame)
	recycleFrameBuf(want)

	// The round trip is the decode of those codes.
	rt, r := slices.Clone(data), slices.Clone(res)
	LossyRoundTrip(DTInt8Q, rt, r)
	for i := range rt {
		if want := float64(codes[i]) * s; bits(rt[i]) != bits(want) {
			t.Fatalf("elem %d (%v): round trip %v (%#x), oracle %v (%#x)", i, v[i], rt[i], bits(rt[i]), want, bits(want))
		}
	}
	checkR("LossyRoundTrip", r)
}

// quantEdgeValues lists, in grid steps, every place the rounding or the clamp
// can go wrong: each tie k+½ with both float neighbours, the largest value
// below a half, the clamp's edges, zeros of both signs, and what is not a
// number or not finite.
func quantEdgeValues() []float64 {
	vals := []float64{
		0, math.Copysign(0, -1), 0.49999999999999994, -0.49999999999999994,
		126.5, -126.5, 127, -127, 127.5, -127.5, 128, -128, 1e300, -1e300,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1),
		5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
		math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000bad),
	}
	for k := -128; k <= 128; k++ {
		tie := float64(k) + 0.5
		vals = append(vals, tie, math.Nextafter(tie, math.Inf(1)), math.Nextafter(tie, math.Inf(-1)), float64(k))
	}
	return vals
}

// TestQuantKernelBitIdentical holds the fused kernel to the oracle — codes,
// decoded bits (the sign of a zero included), scale, residual — on the edge
// values as multiples of scales that make them exact (1, via a 127 in the
// data), tiny, huge and underflowing to zero, without a residual and with
// one, at the lengths around a vector width, and on unaligned sub-slices.
func TestQuantKernelBitIdentical(t *testing.T) {
	edges := quantEdgeValues()
	zeros := make([]float64, len(edges)+1)
	for _, scale := range []float64{1, 1.0 / 127, 0.3, 5e-324, 1e-310, math.MaxFloat64 / 127, 0} {
		// The edges as multiples of the scale, with no residual to speak of
		// and with the raw edges as the residual.
		scaled := make([]float64, len(edges))
		for i, v := range edges {
			scaled[i] = v * scale
		}
		checkQuantKernel(t, scaled, zeros, len(edges)/2)
		checkQuantKernel(t, scaled, edges, 3)
	}
	// A 127 in the data makes the derived scale exactly 1: every k+½ is a tie.
	// Without it the ±128s set the scale.
	checkQuantKernel(t, append([]float64{127}, edges[:24]...), zeros, 1)
	finite := append([]float64{127}, edges[25:]...)
	for i, v := range finite {
		if math.Abs(v) > 127 {
			finite[i] = 0.25
		}
	}
	checkQuantKernel(t, finite, zeros, 7)
	// A residual that lands the folded values on ties at scale 1.
	ties := []float64{126, 0.25, -1.25, 2, -3}
	checkQuantKernel(t, ties, []float64{1, 0.25, -1.25, 0.5, 0.5}, 2)
	// A payload whose scale underflows to zero, and all-non-finite ones.
	checkQuantKernel(t, []float64{5e-324, -1e-322, 0}, zeros, 1)
	checkQuantKernel(t, []float64{math.NaN(), math.Inf(1), math.Inf(-1)}, zeros, 2)

	rng := rand.New(rand.NewSource(7))
	backing := make([]float64, 300)
	resid := make([]float64, 300)
	for _, n := range []int{0, 1, 3, 4, 5, 8, 129} {
		for _, off := range []int{0, 1, 3} {
			for i := range backing {
				backing[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
				resid[i] = rng.NormFloat64() * 0.01
			}
			data, res := backing[off:off+n], resid[off:off+n]
			if n > 4 {
				data[rng.Intn(n)] = edges[rng.Intn(len(edges))]
			}
			checkQuantKernel(t, data, res, n/3)
		}
	}
}

// FuzzQuantKernel is the same differential test driven by the fuzzer: raw
// bytes become the float64 payload and the residual, scale a factor that
// puts the same payload on another grid, and cut the start of the sub-slice
// checked again. The committed corpus under testdata/fuzz holds the boundary
// cases.
func FuzzQuantKernel(f *testing.F) {
	le := binary.LittleEndian
	seed := func(vals ...float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			putF64(b[8*i:], v)
		}
		return b
	}
	f.Add(seed(127, 0.5, 1.5, -2.5, 126.5, -126.5, 0.49999999999999994), seed(0, 0, 0), 1.0, uint8(2))
	f.Add(seed(math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)), seed(1, -1), 0.0, uint8(0))
	f.Add(seed(5e-324, -1e-322, 2.2250738585072014e-308), seed(5e-324), 5e-324, uint8(1))
	f.Add(seed(math.MaxFloat64, -1e300, 3), seed(-math.MaxFloat64), math.MaxFloat64/127, uint8(3))
	f.Fuzz(func(t *testing.T, payload, residual []byte, scale float64, cut uint8) {
		n := min(len(payload)/8, 512)
		data, res := make([]float64, n), make([]float64, n)
		for i := range data {
			data[i] = math.Float64frombits(le.Uint64(payload[8*i:]))
			if 8*i+8 <= len(residual) {
				res[i] = math.Float64frombits(le.Uint64(residual[8*i:]))
			}
		}
		checkQuantKernel(t, data, res, int(cut))
		if scale != 0 && !math.IsNaN(scale) && !math.IsInf(scale, 0) {
			for i := range data {
				data[i] *= scale
			}
			checkQuantKernel(t, data, res, int(cut))
		}
	})
}

var benchQuantSink float64

// BenchmarkQuantize times the fused int8q kernel at the two sizes a dp2x2-zq
// rank meets (the chunk it ships and the stage it hosts), without a residual
// and with error feedback, and reports ns/element.
func BenchmarkQuantize(b *testing.B) {
	for _, n := range []int{131072, 262144} {
		rng := rand.New(rand.NewSource(1))
		g, r := make([]float64, n), make([]float64, n)
		for i := range g {
			g[i] = rng.NormFloat64()
		}
		codes := make([]byte, n)
		for _, bc := range []struct {
			name string
			res  []float64
		}{{"encode", nil}, {"feedback", r}} {
			b.Run(fmt.Sprintf("%s/n=%d", bc.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					benchQuantSink = quantizeInto(codes, g, bc.res)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
			})
		}
	}
}
