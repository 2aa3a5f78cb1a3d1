package dist

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/tensor"
)

// encodeToStream is the test-side sender: encode one data frame and write it.
func encodeToStream(t *testing.T, w io.Writer, h *Header, data []float64, crc bool) {
	t.Helper()
	buf := EncodeFrame(h, data, crc)
	if _, err := w.Write(buf); err != nil {
		t.Fatal(err)
	}
	recycleFrameBuf(buf)
}

// TestFrameRoundTripProperty drives random shapes (including empty and
// scalar), both dtypes, and both CRC settings through encode→decode and
// checks header fields and payload equality.
func TestFrameRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][]int{
		{},           // scalar
		{0},          // empty
		{1},          // single element
		{4, 0, 3},    // empty with nonzero dims
		{7},          // odd flat
		{3, 5},       // matrix
		{2, 3, 4, 5}, // rank 4
	}
	for i := 0; i < 64; i++ {
		shapes = append(shapes, []int{rng.Intn(9), rng.Intn(9)})
	}
	for _, dt := range []DType{DTF64, DTF32} {
		for _, crc := range []bool{false, true} {
			var stream bytes.Buffer
			var want []struct {
				h    Header
				data []float64
			}
			for i, shape := range shapes {
				n := tensor.NumElements(shape)
				data := make([]float64, n)
				for j := range data {
					data[j] = rng.NormFloat64() * 1e3
				}
				h := Header{Kind: frameData, From: i, To: i * 31, Tag: i*1000003 - 7, DType: dt, Shape: shape}
				encodeToStream(t, &stream, &h, data, crc)
				want = append(want, struct {
					h    Header
					data []float64
				}{h, data})
			}
			dec := NewDecoder(&stream)
			for i, w := range want {
				h, ten, err := dec.ReadFrame()
				if err != nil {
					t.Fatalf("dtype %d crc %v frame %d: %v", dt, crc, i, err)
				}
				if h.From != w.h.From || h.To != w.h.To || h.Tag != w.h.Tag || h.DType != dt {
					t.Fatalf("frame %d header %+v, want %+v", i, h, w.h)
				}
				if !ten.HasShape(w.h.Shape) {
					t.Fatalf("frame %d shape %v, want %v", i, ten.Shape(), w.h.Shape)
				}
				for j, v := range ten.Data() {
					wantV := w.data[j]
					if dt == DTF32 {
						wantV = float64(float32(wantV))
					}
					if v != wantV {
						t.Fatalf("frame %d elem %d = %v, want %v", i, j, v, wantV)
					}
				}
				tensor.Recycle(ten)
			}
			if _, _, err := dec.ReadFrame(); err != io.EOF {
				t.Fatalf("after last frame: err %v, want io.EOF", err)
			}
		}
	}
}

// TestFrameRoundTripF64BitExact pins the lossless guarantee bit-for-bit loss
// equality across process counts rests on: DTF64 payloads survive the wire
// with identical bit patterns — negative zero, subnormals, infinities and NaNs
// with their payload bits and sign included — from any sub-slice of a buffer
// (odd element offsets, so not the allocation's alignment) and out of a
// stream that starts at an odd byte, CRC on and off.
func TestFrameRoundTripF64BitExact(t *testing.T) {
	special := []float64{
		0, math.Copysign(0, -1), 1.0 / 3.0, 5e-324, -5e-324, 1e308, -1e-308,
		math.Float64frombits(0x000f_ffff_ffff_ffff), // largest subnormal
		math.Inf(1), math.Inf(-1),
		math.NaN(),
		math.Float64frombits(0x7ff0_0000_0000_0001), // signalling NaN, smallest payload
		math.Float64frombits(0xfff8_dead_beef_cafe), // negative quiet NaN with a payload
		math.Float64frombits(0x7ff7_ffff_ffff_ffff), // signalling NaN, largest payload
		math.MaxFloat64, -math.SmallestNonzeroFloat64,
	}
	for _, crc := range []bool{false, true} {
		for lo := 0; lo < 4; lo++ {
			for hi := len(special); hi > len(special)-3; hi-- {
				in := special[lo:hi]
				h := Header{Kind: frameData, From: 1, To: 2, Tag: 3, DType: DTF64, Shape: []int{len(in)}}
				stream := bytes.NewBuffer([]byte{0xEE}) // the frame starts at an odd address
				encodeToStream(t, stream, &h, in, crc)
				stream.ReadByte()
				_, ten, err := NewDecoder(stream).ReadFrame()
				if err != nil {
					t.Fatal(err)
				}
				if ten.Size() != len(in) {
					t.Fatalf("[%d:%d] crc %v: %d elements back, sent %d", lo, hi, crc, ten.Size(), len(in))
				}
				for i, v := range ten.Data() {
					if math.Float64bits(v) != math.Float64bits(in[i]) {
						t.Fatalf("[%d:%d] crc %v elem %d: bits %x, want %x", lo, hi, crc, i, math.Float64bits(v), math.Float64bits(in[i]))
					}
				}
				tensor.Recycle(ten)
			}
		}
	}
}

// TestDecodeTruncatedFrame covers every truncation point: inside the length
// prefix, inside the header, inside the payload.
func TestDecodeTruncatedFrame(t *testing.T) {
	h := Header{Kind: frameData, From: 0, To: 1, Tag: 9, DType: DTF64, Shape: []int{8}}
	full := EncodeFrame(&h, make([]float64, 8), false)
	defer recycleFrameBuf(full)
	for _, cut := range []int{1, 3, 5, 12, len(full) / 2, len(full) - 1} {
		dec := NewDecoder(bytes.NewReader(full[:cut]))
		_, _, err := dec.ReadFrame()
		if err == nil {
			t.Fatalf("cut at %d decoded successfully", cut)
		}
		if err == io.EOF && cut >= 4 {
			t.Fatalf("cut at %d reported clean EOF mid-frame", cut)
		}
	}
}

// TestDecodeCorruptFrames covers header validation: bad magic, bad version,
// unknown dtype, oversized rank, length/shape mismatch, CRC mismatch.
func TestDecodeCorruptFrames(t *testing.T) {
	mk := func() []byte {
		h := Header{Kind: frameData, From: 0, To: 1, Tag: 4, DType: DTF64, Shape: []int{4}}
		buf := EncodeFrame(&h, []float64{1, 2, 3, 4}, true)
		out := append([]byte(nil), buf...)
		recycleFrameBuf(buf)
		return out
	}
	cases := []struct {
		name   string
		mutate func(b []byte)
	}{
		{"bad magic", func(b []byte) { b[4] = 0x00 }},
		{"bad version", func(b []byte) { b[5] = 99 }},
		{"unknown dtype", func(b []byte) { b[24] = 77 }},
		{"oversized rank", func(b []byte) { b[25] = maxWireRank + 1 }},
		{"length/shape mismatch", func(b []byte) { b[25] = 2 }},
		{"payload corruption fails CRC", func(b []byte) { b[len(b)-9] ^= 0xFF }},
		{"header corruption fails CRC", func(b []byte) { b[17] ^= 0xFF }}, // tag byte: would re-route silently without header coverage
		{"crc trailer corruption", func(b []byte) { b[len(b)-1] ^= 0xFF }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := mk()
			tc.mutate(b)
			_, _, err := NewDecoder(bytes.NewReader(b)).ReadFrame()
			if err == nil {
				t.Fatal("corrupt frame decoded successfully")
			}
		})
	}
}

// TestDecodeRejectsAbsurdLength pins the allocation guard: a corrupt length
// prefix may not drive a giant allocation.
func TestDecodeRejectsAbsurdLength(t *testing.T) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], 1<<31)
	_, _, err := NewDecoder(bytes.NewReader(b[:])).ReadFrame()
	if err == nil {
		t.Fatal("absurd frame length accepted")
	}
}

// TestMailboxOrderAndReuse checks FIFO delivery across concurrent producers'
// interleavings and that Stop drains outstanding items.
func TestMailboxOrderAndReuse(t *testing.T) {
	var got []int
	done := make(chan struct{})
	m := NewMailbox[int](0, func(v int) {
		got = append(got, v)
		if len(got) == 1000 {
			close(done)
		}
	})
	for i := 0; i < 1000; i++ {
		m.Put(i)
	}
	<-done
	m.Stop()
	for i, v := range got {
		if v != i {
			t.Fatalf("item %d = %d, want %d (FIFO violated)", i, v, i)
		}
	}
}

// TestMailboxStopDrains pins the shutdown contract: items enqueued before
// Stop are all delivered.
func TestMailboxStopDrains(t *testing.T) {
	block := make(chan struct{})
	var n int
	m := NewMailbox[int](0, func(int) {
		<-block
		n++
	})
	for i := 0; i < 10; i++ {
		m.Put(i)
	}
	close(block)
	m.Stop()
	if n != 10 {
		t.Fatalf("sink ran %d times, want 10", n)
	}
}

// TestMailboxPutNeverBlocks enqueues against a sink that is blocked for the
// duration — every Put must return immediately (the deadlock-freedom
// property the sender workers exist for).
func TestMailboxPutNeverBlocks(t *testing.T) {
	release := make(chan struct{})
	m := NewMailbox[int](0, func(int) { <-release })
	doneAll := make(chan struct{})
	go func() {
		for i := 0; i < 10000; i++ {
			m.Put(i)
		}
		close(doneAll)
	}()
	<-doneAll // would hang here if Put blocked on the stalled sink
	close(release)
	m.Stop()
}

// TestMailboxLenIncludesInflight pins the queue-depth gauge's contract: a
// batch the worker has swapped out but not yet sunk still counts, so depth
// falls item by item through a drain burst instead of snapping to zero the
// moment the worker claims the batch.
func TestMailboxLenIncludesInflight(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 16)
	m := NewMailbox[int](0, func(int) {
		started <- struct{}{}
		<-gate
	})
	defer m.Stop()
	const items = 5
	for i := 0; i < items; i++ {
		m.Put(i)
	}
	<-started // worker swapped the batch out and is blocked in the sink
	if got := m.Len(); got != items {
		t.Fatalf("Len during in-flight batch = %d, want %d", got, items)
	}
	gate <- struct{}{} // release exactly one item
	<-started
	if got := m.Len(); got != items-1 {
		t.Fatalf("Len after one sunk item = %d, want %d", got, items-1)
	}
	close(gate)
	deadline := time.Now().Add(5 * time.Second)
	for m.Len() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := m.Len(); got != 0 {
		t.Fatalf("Len after full drain = %d, want 0", got)
	}
}

// TestMailboxLenConcurrent reads Len while producers and teardown race —
// meaningful mostly under -race, where an unsynchronized depth read fails.
func TestMailboxLenConcurrent(t *testing.T) {
	m := NewMailbox[int](0, func(int) {})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if m.Len() < 0 {
				t.Error("negative mailbox depth")
				return
			}
		}
	}()
	for i := 0; i < 5000; i++ {
		if !m.TryPut(i) {
			t.Fatal("TryPut refused before stop")
		}
	}
	m.Stop()
	if m.TryPut(1) {
		t.Fatal("TryPut accepted after stop")
	}
	close(stop)
	wg.Wait()
}

// BenchmarkFrameCodec times the frame codec at the chunk a dp2x2 rank ships
// (131 072 elements), f64 and int8q: EncodeFrame into a pooled buffer,
// WriteFrame to a discarding writer (encode plus the buffer's round trip
// through the pool, as on the send path), and ReadFrame from memory into a
// pooled tensor the loop recycles. It reports ns/element and allocations; an
// f64 decode allocates nothing once the pool is warm.
func BenchmarkFrameCodec(b *testing.B) {
	const n = 131072
	rng := rand.New(rand.NewSource(1))
	data := make([]float64, n)
	for i := range data {
		data[i] = rng.NormFloat64() * 0.01
	}
	perElem := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
	}
	for _, dt := range []DType{DTF64, DTInt8Q} {
		h := Header{Kind: frameData, From: 0, To: 1, Tag: 1, DType: dt, Shape: []int{n}}
		b.Run("encode/"+dt.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				recycleFrameBuf(EncodeFrame(&h, data, false))
			}
			perElem(b)
		})
		b.Run("writeframe/"+dt.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := WriteFrame(io.Discard, &h, data, false); err != nil {
					b.Fatal(err)
				}
			}
			perElem(b)
		})
		b.Run("decode/"+dt.String(), func(b *testing.B) {
			frame := bytes.Clone(EncodeFrame(&h, data, false))
			rd := bytes.NewReader(nil)
			dec := NewDecoder(rd)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rd.Reset(frame)
				_, t, err := dec.ReadFrame()
				if err != nil {
					b.Fatal(err)
				}
				tensor.Recycle(t)
			}
			perElem(b)
		})
	}
}
