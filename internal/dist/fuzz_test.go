package dist

import (
	"bytes"
	"testing"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// poolTraffic is how many tensors have left the scratch pool's hands and how
// many have come back, by the pool's own counters.
func poolTraffic() (taken, returned int64) {
	for _, name := range []string{"pool/hit", "pool/miss", "pool/oversize"} {
		taken += obs.CounterNow(obs.Counter(name))
	}
	for _, name := range []string{"pool/recycle", "pool/recycle_drop"} {
		returned += obs.CounterNow(obs.Counter(name))
	}
	return taken, returned
}

// FuzzReadFrame feeds arbitrary bytes to the decoder as a stream of frames.
// Whatever they are: no panic; no buffer sized past what the stream holds (it
// is an in-memory one; maxFrameElems bounds a socket's); an error comes with
// no tensor, and every tensor the decoder took from the scratch pool has gone
// back exactly once by the time the stream is exhausted — returned to the
// consumer, who recycles it, or recycled on the error path; an accepted
// frame's kind is data, hello or goodbye; and every accepted f64 data frame
// is the bytes EncodeFrame makes of what was decoded (reserved flag bits
// aside), so the decoder accepts no second spelling of a frame. The committed
// corpus under testdata/fuzz is the rows of the corrupt-, truncated- and
// absurd-frame tests; its batch-* rows are envelopes of a kind the wire no
// longer has, and must be rejected.
func FuzzReadFrame(f *testing.F) {
	for _, crc := range []bool{false, true} {
		for _, dt := range []DType{DTF64, DTF32, DTInt8Q} {
			h := Header{Kind: frameData, From: 1, To: 2, Tag: 1<<20 + 3, DType: dt, Shape: []int{2, 3}}
			f.Add(bytes.Clone(EncodeFrame(&h, []float64{1, -2, 0.5, 1e300, -0.0, 7}, crc)))
		}
		f.Add(bytes.Clone(controlFrame(frameGoodbye, 3, -1)))
	}
	obs.Enable()
	defer obs.Disable()
	f.Fuzz(func(t *testing.T, stream []byte) {
		taken0, returned0 := poolTraffic()
		rd := bytes.NewReader(stream)
		dec := NewDecoder(rd)
		for {
			start := len(stream) - rd.Len()
			h, ten, err := dec.ReadFrame()
			if err != nil {
				if ten != nil {
					t.Fatalf("error %v came with a tensor", err)
				}
				break
			}
			switch h.Kind {
			case frameData, frameHello, frameGoodbye:
			default:
				t.Fatalf("accepted a frame of kind %d", h.Kind)
			}
			if (h.Kind == frameData) != (ten != nil) {
				t.Fatalf("kind %d frame decoded to tensor %v", h.Kind, ten)
			}
			if ten == nil {
				continue
			}
			if !ten.HasShape(h.Shape) {
				t.Fatalf("tensor shape %v under header shape %v", ten.Shape(), h.Shape)
			}
			if frame := stream[start : len(stream)-rd.Len()]; h.DType == DTF64 {
				again := EncodeFrame(&h, ten.Data(), frame[6]&flagCRC != 0)
				again[6] = frame[6] // reserved flag bits are ignored, not rejected
				if !bytes.Equal(again, frame) {
					t.Fatalf("accepted frame % x re-encodes to % x", frame, again)
				}
				recycleFrameBuf(again)
			}
			tensor.Recycle(ten)
		}
		taken, returned := poolTraffic()
		if taken-taken0 != returned-returned0 {
			t.Fatalf("decoder took %d tensors from the scratch pool, %d went back", taken-taken0, returned-returned0)
		}
	})
}
