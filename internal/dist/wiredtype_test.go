package dist

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// TestLossyRoundTripF32Canaries pins the f32 value mapping on the IEEE edge
// cases: denormals flush through float32 conversion deterministically,
// signed zeros keep their sign, NaN stays NaN, and infinities survive.
func TestLossyRoundTripF32Canaries(t *testing.T) {
	in := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-45, math.NaN(), math.Inf(1), math.Inf(-1), 1.0 / 3.0}
	got := append([]float64(nil), in...)
	LossyRoundTrip(DTF32, got, nil)
	for i, v := range got {
		want := float64(float32(in[i]))
		if math.IsNaN(want) {
			if !math.IsNaN(v) {
				t.Fatalf("elem %d: %v, want NaN", i, v)
			}
			continue
		}
		if math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("elem %d: bits %x, want %x", i, math.Float64bits(v), math.Float64bits(want))
		}
	}
	if math.Signbit(got[1]) != true {
		t.Fatal("-0.0 lost its sign through the f32 round trip")
	}
}

// TestLossyRoundTripInt8Q pins the quantizer's scale-edge behavior: the
// max-magnitude element maps to exactly ±127 steps (so requantizing an
// already quantized payload is the identity in value space), NaN maps to
// zero, infinities clamp to the extremes, and an all-zero (or all-nonfinite)
// bucket ships scale 0 and decodes to all zeros instead of dividing by zero.
func TestLossyRoundTripInt8Q(t *testing.T) {
	t.Run("max maps to extreme", func(t *testing.T) {
		in := []float64{3.7, -9.25, 0.01, 9.25}
		got := append([]float64(nil), in...)
		LossyRoundTrip(DTInt8Q, got, nil)
		scale := 9.25 / 127
		if got[1] != -127*scale || got[3] != 127*scale {
			t.Fatalf("extremes %v / %v, want ±%v", got[1], got[3], 127*scale)
		}
		for i, v := range got {
			if math.Abs(v-in[i]) > scale/2+1e-12 {
				t.Fatalf("elem %d: %v strays more than half a step from %v", i, v, in[i])
			}
		}
	})
	t.Run("all zero", func(t *testing.T) {
		got := []float64{0, 0, math.Copysign(0, -1)}
		LossyRoundTrip(DTInt8Q, got, nil)
		for i, v := range got {
			if v != 0 {
				t.Fatalf("elem %d: %v, want 0", i, v)
			}
		}
	})
	t.Run("nan and inf", func(t *testing.T) {
		got := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1}
		LossyRoundTrip(DTInt8Q, got, nil)
		scale := 1.0 / 127
		if got[0] != 0 {
			t.Fatalf("NaN quantized to %v, want 0", got[0])
		}
		if got[1] != 127*scale || got[2] != -127*scale {
			t.Fatalf("infinities quantized to %v / %v, want clamp to ±%v", got[1], got[2], 127*scale)
		}
	})
	t.Run("idempotent", func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		data := make([]float64, 257)
		for i := range data {
			data[i] = rng.NormFloat64() * 42
		}
		LossyRoundTrip(DTInt8Q, data, nil)
		again := append([]float64(nil), data...)
		LossyRoundTrip(DTInt8Q, again, nil)
		for i := range data {
			if math.Float64bits(again[i]) != math.Float64bits(data[i]) {
				t.Fatalf("elem %d drifted on requantization: %v -> %v", i, data[i], again[i])
			}
		}
	})
}

// TestFrameRoundTripInt8Q drives quantized frames through encode→decode (both
// CRC settings) and checks the decoded values equal the LossyRoundTrip
// mapping of the input — the equivalence the error-feedback residual
// computation depends on.
func TestFrameRoundTripInt8Q(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, crc := range []bool{false, true} {
		for _, n := range []int{0, 1, 5, 129} {
			data := make([]float64, n)
			for i := range data {
				data[i] = rng.NormFloat64() * 1e2
			}
			want := append([]float64(nil), data...)
			LossyRoundTrip(DTInt8Q, want, nil)
			h := Header{Kind: frameData, From: 0, To: 1, Tag: 7, DType: DTInt8Q, Shape: []int{n}}
			var stream bytes.Buffer
			encodeToStream(t, &stream, &h, data, crc)
			gh, ten, err := NewDecoder(&stream).ReadFrame()
			if err != nil {
				t.Fatalf("crc %v n %d: %v", crc, n, err)
			}
			if gh.DType != DTInt8Q {
				t.Fatalf("decoded dtype %v", gh.DType)
			}
			for i, v := range ten.Data() {
				if math.Float64bits(v) != math.Float64bits(want[i]) {
					t.Fatalf("crc %v n %d elem %d: %v, want %v", crc, n, i, v, want[i])
				}
			}
			tensor.Recycle(ten)
		}
	}
}

// TestDecodeCorruptInt8QFrames covers the quantized payload's own validation:
// a non-finite or negative scale prefix and truncated/padded payloads must be
// rejected as corrupt, never panic or decode garbage.
func TestDecodeCorruptInt8QFrames(t *testing.T) {
	mk := func(crc bool) []byte {
		h := Header{Kind: frameData, From: 0, To: 1, Tag: 4, DType: DTInt8Q, Shape: []int{4}}
		buf := EncodeFrame(&h, []float64{1, -2, 3, -4}, crc)
		out := append([]byte(nil), buf...)
		recycleFrameBuf(buf)
		return out
	}
	plain := mk(false)
	scaleOff := len(plain) - 4 - 8 // payload tail: 8-byte scale + 4 int8
	cases := []struct {
		name   string
		mutate func() []byte
	}{
		{"nan scale", func() []byte {
			b := mk(false)
			putF64(b[scaleOff:], math.NaN())
			return b
		}},
		{"inf scale", func() []byte {
			b := mk(false)
			putF64(b[scaleOff:], math.Inf(1))
			return b
		}},
		{"negative scale", func() []byte {
			b := mk(false)
			putF64(b[scaleOff:], -1.0)
			return b
		}},
		{"truncated payload", func() []byte {
			b := mk(false)
			// Shrink the frame length so the payload is one quantized byte
			// short of the 4-element shape.
			putU32(b, uint32(len(b)-4-1))
			return b[:len(b)-1]
		}},
		{"padded payload", func() []byte {
			b := mk(false)
			putU32(b, uint32(len(b)-4+1))
			return append(b, 0x7f)
		}},
		{"flipped quantized byte fails crc", func() []byte {
			b := mk(true)
			b[len(b)-5] ^= 0xFF // last int8 before the CRC trailer
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := NewDecoder(bytes.NewReader(tc.mutate())).ReadFrame()
			if err == nil {
				t.Fatal("corrupt int8q frame decoded successfully")
			}
		})
	}
}

// putU32/putF64 are little test shims over the wire's endianness.
func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func putF64(b []byte, v float64) {
	u := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		b[i] = byte(u >> (8 * i))
	}
}

// TestLossyTagWindowSelectsDType sends one tensor inside and one outside the
// armed lossy window across a two-endpoint mesh and checks only the
// in-window payload lost precision — the property that keeps losses and
// checkpoints lossless while gradients compress.
func TestLossyTagWindowSelectsDType(t *testing.T) {
	mesh, err := NewLocalMesh(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	mesh.SetWireDType(DTF32)
	mesh.SetLossyTagWindow(1000, 2000)

	v := 1.0 / 3.0 // not f32-representable
	send := func(tag int) {
		ten := tensor.Scalar(v)
		mesh.Send(0, 1, tag, ten)
		tensor.Recycle(ten)
	}
	send(1500) // in window: f32
	send(2000) // half-open upper bound: lossless
	send(999)  // below window: lossless

	in, err := mesh.Recv(1, 0, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Data()[0]; got != float64(float32(v)) {
		t.Fatalf("in-window payload %v, want f32-rounded %v", got, float64(float32(v)))
	}
	tensor.Recycle(in)
	for _, tag := range []int{2000, 999} {
		out, err := mesh.Recv(1, 0, tag)
		if err != nil {
			t.Fatal(err)
		}
		if got := out.Data()[0]; math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("tag %d outside window arrived as %v, want bit-exact %v", tag, got, v)
		}
		tensor.Recycle(out)
	}
}

// TestLoopbackMatchesRemoteLossiness pins the self-send contract under a
// lossy dtype: a rank sending to itself must observe the same quantized
// values its peers decode, or collective results would diverge by rank.
func TestLoopbackMatchesRemoteLossiness(t *testing.T) {
	mesh, err := NewLocalMesh(2, Options{DType: DTF32})
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	v := 1.0 / 3.0
	ten := tensor.Scalar(v)
	mesh.Send(0, 0, 42, ten)
	tensor.Recycle(ten)
	got, err := mesh.Recv(0, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	defer tensor.Recycle(got)
	if g := got.Data()[0]; g != float64(float32(v)) {
		t.Fatalf("loopback payload %v, want f32-rounded %v", g, float64(float32(v)))
	}
}

// TestFedLoopbackMatchesFedRemote is the same contract for a lent send with a
// residual, on both lossy dtypes: a self-send decodes to the values a peer
// decodes of the same payload and residual, and leaves the same residual.
func TestFedLoopbackMatchesFedRemote(t *testing.T) {
	payload, res := make([]float64, 1000), make([]float64, 1000)
	for i := range payload {
		payload[i] = math.Sin(float64(i)) / 3
		res[i] = math.Cos(float64(i)) * 1e-3
	}
	for _, dt := range []DType{DTF32, DTInt8Q} {
		mesh, err := NewLocalMesh(2, Options{DType: dt})
		if err != nil {
			t.Fatal(err)
		}
		defer mesh.Close()
		var got [2]*tensor.Tensor
		var kept [2][]float64
		for to := range got {
			kept[to] = slices.Clone(res)
			mesh.SendLent(0, to, 43, payload, kept[to])
			if got[to], err = mesh.Recv(to, 0, 43); err != nil {
				t.Fatal(err)
			}
			defer tensor.Recycle(got[to])
		}
		if err := mesh.Settle(0, 1); err != nil {
			t.Fatal(err)
		}
		for i := range payload {
			bits := math.Float64bits
			if bits(got[0].Data()[i]) != bits(got[1].Data()[i]) || bits(kept[0][i]) != bits(kept[1][i]) {
				t.Fatalf("%v elem %d: loopback %v with residual %v, remote %v with %v", dt, i, got[0].Data()[i], kept[0][i], got[1].Data()[i], kept[1][i])
			}
		}
		if slices.Equal(kept[0], res) {
			t.Fatalf("%v: the residual came back untouched", dt)
		}
	}
}

// TestSmallSendBurstArrivesInOrder floods one link with small CRC'd tensors —
// back-to-back frames that leave in one flush of the link's buffered writer —
// and requires every payload to arrive intact and in tag order.
func TestSmallSendBurstArrivesInOrder(t *testing.T) {
	mesh, err := NewLocalMesh(2, Options{CRC: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	const n = 400
	for i := 0; i < n; i++ {
		ten := tensor.GetScratch(3)
		ten.Data()[0], ten.Data()[1], ten.Data()[2] = float64(i), float64(2*i), -float64(i)
		mesh.Send(0, 1, 10000+i, ten)
		tensor.Recycle(ten)
	}
	for i := 0; i < n; i++ {
		got, err := mesh.Recv(1, 0, 10000+i)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if got.Data()[0] != float64(i) || got.Data()[1] != float64(2*i) || got.Data()[2] != -float64(i) {
			t.Fatalf("payload %d arrived as %v", i, got.Data())
		}
		tensor.Recycle(got)
	}
}
