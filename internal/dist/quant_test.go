package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
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

// checkQuantKernels compares every kernel with the oracle over data: on the
// scale data itself gives (the frame path) and on an explicit one (a range's
// scale handed to a piece of it), and the feedback primitive over data cut at
// cut with the first len(data) elements of res as the carried residual.
func checkQuantKernels(t *testing.T, data, res []float64, scale float64, cut int) {
	t.Helper()
	bits := math.Float64bits
	if got, want := quantScale(data), oracleScale(data); bits(got) != bits(want) {
		t.Fatalf("quantScale %v (%#x), oracle %v (%#x)", got, bits(got), want, bits(want))
	}
	for _, s := range []float64{oracleScale(data), scale} {
		codes := make([]byte, len(data)+1)
		codes[len(data)] = 0xAA
		quantizeBytes(codes, data, s)
		vals := append([]float64(nil), data...)
		quantizeValues(vals, s)
		for i, v := range data {
			q := oracleElem(v, s)
			if int8(codes[i]) != q {
				t.Fatalf("scale %v elem %d (%v = %#x): code %d, oracle %d", s, i, v, bits(v), int8(codes[i]), q)
			}
			if want := float64(q) * s; bits(vals[i]) != bits(want) {
				t.Fatalf("scale %v elem %d (%v): decoded %v (%#x), oracle %v (%#x)", s, i, v, vals[i], bits(vals[i]), want, bits(want))
			}
		}
		if codes[len(data)] != 0xAA {
			t.Fatalf("quantizeBytes wrote past %d elements", len(data))
		}
	}

	// The frame and the round trip are the same kernels on the derived scale.
	rt := append([]float64(nil), data...)
	LossyRoundTrip(DTInt8Q, rt)
	h := Header{Kind: frameData, To: 1, DType: DTInt8Q, Shape: []int{len(data)}}
	frame := EncodeFrame(&h, data, false)
	payload := frame[len(frame)-8-len(data):]
	s := oracleScale(data)
	if got := binary.LittleEndian.Uint64(payload); got != bits(s) {
		t.Fatalf("frame scale %#x, oracle %#x", got, bits(s))
	}
	for i, v := range data {
		q := oracleElem(v, s)
		if int8(payload[8+i]) != q || bits(rt[i]) != bits(float64(q)*s) {
			t.Fatalf("elem %d (%v): frame code %d round trip %v, oracle %d / %v", i, v, int8(payload[8+i]), rt[i], q, float64(q)*s)
		}
	}
	recycleFrameBuf(frame)

	// Error feedback: r += g; g = decode(encode(r)); r -= g; Σ r².
	wantR := make([]float64, len(data))
	for i := range data {
		wantR[i] = res[i] + data[i]
	}
	fs := oracleScale(wantR)
	wantG := make([]float64, len(data))
	var wantSq float64
	for i, v := range wantR {
		wantG[i] = float64(oracleElem(v, fs)) * fs
		wantR[i] = v - wantG[i]
		wantSq += wantR[i] * wantR[i]
	}
	g, r := append([]float64(nil), data...), append([]float64(nil), res[:len(data)]...)
	cut = min(max(cut, 0), len(data))
	sq := QuantizeWithFeedback([][]float64{g[:cut], g[cut:]}, [][]float64{r[:cut], r[cut:]})
	for i := range data {
		if bits(g[i]) != bits(wantG[i]) || bits(r[i]) != bits(wantR[i]) {
			t.Fatalf("feedback elem %d (g %v r %v, cut %d): got g %v r %v, oracle g %v r %v", i, data[i], res[i], cut, g[i], r[i], wantG[i], wantR[i])
		}
	}
	// Which payload a sum of several NaNs carries is the compiler's operand
	// order, not the kernel's arithmetic.
	if bits(sq) != bits(wantSq) && !(math.IsNaN(sq) && math.IsNaN(wantSq)) {
		t.Fatalf("feedback Σr² %v, oracle %v", sq, wantSq)
	}
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

// TestQuantKernelBitIdentical holds the slice kernels to the oracle — codes,
// decoded bits (the sign of a zero included), scale, residual — on the edge
// values at the scales that make them exact (1, via a 127 in the data), tiny,
// huge and underflowing to zero, at the lengths around a vector width, and
// on unaligned sub-slices.
func TestQuantKernelBitIdentical(t *testing.T) {
	edges := quantEdgeValues()
	zeros := make([]float64, len(edges)+1)
	for _, scale := range []float64{1, 1.0 / 127, 0.3, 5e-324, 1e-310, math.MaxFloat64 / 127, 0} {
		// Explicit scale over the raw edges, and the edges as multiples of it.
		checkQuantKernels(t, edges, zeros, scale, len(edges)/2)
		scaled := make([]float64, len(edges))
		for i, v := range edges {
			scaled[i] = v * scale
		}
		checkQuantKernels(t, scaled, edges, scale, 3)
	}
	// A 127 in the data makes the derived scale exactly 1: every k+½ is a tie
	// on the frame path too. Without it the ±128s set the scale.
	checkQuantKernels(t, append([]float64{127}, edges[:24]...), zeros, 1, 1)
	finite := append([]float64{127}, edges[25:]...)
	for i, v := range finite {
		if math.Abs(v) > 127 {
			finite[i] = 0.25
		}
	}
	checkQuantKernels(t, finite, zeros, 1, 7)
	// A payload whose scale underflows to zero, and all-non-finite ones.
	checkQuantKernels(t, []float64{5e-324, -1e-322, 0}, zeros, 0, 1)
	checkQuantKernels(t, []float64{math.NaN(), math.Inf(1), math.Inf(-1)}, zeros, 0, 2)

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
			checkQuantKernels(t, data, res, math.Abs(rng.NormFloat64()), n/3)
		}
	}
}

// FuzzQuantKernel is the same differential test driven by the fuzzer: raw
// bytes become the float64 payload, the residual and the explicit scale. The
// committed corpus under testdata/fuzz holds the boundary cases.
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
		// The kernels are only ever handed a scale quantScale produced:
		// finite and non-negative.
		if !(scale >= 0 && scale <= math.MaxFloat64) {
			scale = 0
		}
		checkQuantKernels(t, data, res, scale, int(cut))
	})
}

var benchQuantSink float64

// BenchmarkQuantize times the three kernels at the two sizes a dp2x2-zq rank
// meets (the chunk it ships and the stage it hosts) and reports ns/element.
func BenchmarkQuantize(b *testing.B) {
	for _, n := range []int{131072, 262144} {
		rng := rand.New(rand.NewSource(1))
		g, r, send := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range g {
			g[i] = rng.NormFloat64()
		}
		codes := make([]byte, n)
		perElem := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
		}
		b.Run(fmt.Sprintf("scale/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchQuantSink = quantScale(g)
			}
			perElem(b)
		})
		scale := quantScale(g)
		b.Run(fmt.Sprintf("quantize/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				quantizeBytes(codes, g, scale)
			}
			perElem(b)
		})
		b.Run(fmt.Sprintf("feedback/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(send, g)
				benchQuantSink = QuantizeWithFeedback([][]float64{send}, [][]float64{r})
			}
			perElem(b)
		})
	}
}
