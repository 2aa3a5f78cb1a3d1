// Package dist is the multi-process distributed runtime: a binary wire
// protocol for tagged tensor frames, persistent per-destination sender
// workers, a Unix-domain socket point-to-point transport implementing the
// runtime's Transport contract across the OS processes of one host, and a
// TCP coordinator/worker rendezvous service with heartbeats and failure
// detection. It plays the role Ray RPC + NCCL P2P play in the paper:
// long-lived remote actors driven by a single controller over real sockets.
package dist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// Wire format. Every frame is length-prefixed so a reader can skip or reject
// it without understanding the body:
//
//	u32  frameLen           length of everything after this field
//	u8   magic (0xA7)
//	u8   version (1)
//	u8   flags              bit0: payload CRC32 trailer present
//	u8   kind               frameData | frameHello | frameGoodbye (any other
//	                        kind is corrupt)
//	i32  from, i32 to       transport actor IDs
//	i64  tag
//	u8   dtype              DTF64 | DTF32 | DTInt8Q
//	u8   rank               number of dims (<= maxWireRank)
//	i32  × rank             dims
//	...  payload            dtype-encoded elements, little-endian (DTInt8Q
//	                        prefixes an 8-byte f64 scale)
//	u32  crc (optional)     CRC32-IEEE of everything after the length prefix
//	                        (header + dims + payload — a flipped tag, shape,
//	                        or routing byte must fail the check, not just a
//	                        flipped payload bit)
//
// Payloads are raw little-endian tensor bytes — no reflection, no gob type
// streams. An f64 payload is the memory image of the []float64 on
// little-endian builds (f64image_le.go): EncodeFrame copies it into a pooled
// frame buffer, a lent send (Transport.SendLent) hands the socket the
// caller's storage itself, and the decoder reads it off the stream straight
// into the pooled tensor it returns. f32 and int8q payloads, and every
// payload of a purego or big-endian build, cost one pass over the elements on
// each side through the decoder's staging buffer.
const (
	wireMagic   = 0xA7
	wireVersion = 1

	flagCRC = 1 << 0

	frameData    = 0
	frameHello   = 1
	frameGoodbye = 2

	// maxWireRank bounds the shape a frame may carry; a corrupt header cannot
	// make the reader allocate an absurd dims slice.
	maxWireRank = 16

	// maxFrameElems bounds a single frame's payload (2^28 float64s = 2 GiB);
	// a corrupt length field fails fast instead of OOMing the process.
	maxFrameElems = 1 << 28

	headerFixed = 4 + 1 + 1 + 1 + 1 + 4 + 4 + 8 + 1 + 1 // through rank byte
)

// KindData is the data-frame kind, exported for non-transport users of the
// codec (checkpoint shard files reuse the wire format verbatim, so a shard
// gets the same CRC coverage and pooled decode as a socket frame).
const KindData = frameData

// WriteFrame encodes header + data and writes the complete frame to w in one
// call, returning the staging buffer to the frame pool afterwards. It is the
// io.Writer counterpart of the transport's send path, shared by checkpoint
// shard writers.
func WriteFrame(w io.Writer, h *Header, data []float64, withCRC bool) error {
	buf := EncodeFrame(h, data, withCRC)
	_, err := w.Write(buf)
	putFrameBuf(buf)
	return err
}

// DType identifies the element encoding of a frame payload.
type DType uint8

const (
	// DTF64 ships float64 elements verbatim — the lossless default. Control,
	// loss, and checkpoint frames always use it (bit-for-bit loss equality
	// across process counts depends on it).
	DTF64 DType = 0
	// DTF32 ships float32-truncated elements, halving wire bytes at the cost
	// of precision. Opt-in for bandwidth-bound gradient traffic.
	DTF32 DType = 1
	// DTInt8Q ships an 8-byte float64 scale followed by one signed byte per
	// element: k = round(v/scale) clamped to [-127, 127], scale = maxabs/127
	// over the frame (0 for an all-zero frame). NaN encodes as 0 and ±Inf
	// clamps to ±127 — gradient-only traffic. A sender that keeps a residual
	// hands it over with a lent send (Transport.SendLent): the frame then
	// codes payload + residual, and the residual keeps what the codes
	// dropped, for the next frame of the same extent to carry. The ring hands
	// one over only with the chunk a rank sends first, its own values; in a
	// replica group of three or more ranks every later hop ships a partial
	// sum and rounds it afresh, by at most s/2 per element where s is that
	// frame's scale, and that error is not fed back.
	DTInt8Q DType = 2
)

func (d DType) size() int {
	switch d {
	case DTF32:
		return 4
	case DTInt8Q:
		return 1
	}
	return 8
}

// payloadBytes is the encoded payload size for a data frame of elems
// elements (DTInt8Q carries a scale prefix on top of its 1 byte/elem).
func (d DType) payloadBytes(elems int) int {
	if d == DTInt8Q {
		return 8 + elems
	}
	return elems * d.size()
}

func (d DType) valid() bool { return d == DTF64 || d == DTF32 || d == DTInt8Q }

// Lossless reports whether encode→decode returns every float64 bit-exactly.
func (d DType) Lossless() bool { return d == DTF64 }

// String names the dtype the way the -wire-dtype flag spells it.
func (d DType) String() string {
	switch d {
	case DTF32:
		return "f32"
	case DTInt8Q:
		return "int8q"
	}
	return "f64"
}

// ParseDType maps a -wire-dtype flag value to a DType. The empty string is
// the lossless default.
func ParseDType(s string) (DType, error) {
	switch s {
	case "", "f64":
		return DTF64, nil
	case "f32":
		return DTF32, nil
	case "int8q":
		return DTInt8Q, nil
	}
	return DTF64, fmt.Errorf("dist: unknown wire dtype %q (want f64, f32, or int8q)", s)
}

// The int8q codec is one slice kernel over two element functions, shared by
// the frame encoder and LossyRoundTrip (and through it transport loopback):
// quantizeInto folds a carried residual in under a running max (quantMax),
// then codes each element on the grid that max gives (quantCode) and keeps
// what the code dropped. A frame's decoded element is float64(code)·scale —
// +0 for a zero code whatever the input's sign.

// quantMax folds v into maxAbs, the largest finite magnitude seen so far: NaN
// fails the first compare, ±Inf the second.
func quantMax(maxAbs, v float64) float64 {
	if a := math.Abs(v); a > maxAbs && a <= math.MaxFloat64 {
		return a
	}
	return maxAbs
}

// quantCode is the code of v on the grid of a positive scale: v/scale rounded
// half away from zero and clamped to ±127 (±Inf survives the divide and
// clamps), NaN → 0. Inside the clamp the rounding is two truncations, both
// exact: t = trunc(x), then trunc(2·(x−t)) is ±1 exactly when the fraction
// reaches a half.
func quantCode(v, scale float64) int32 {
	x := v / scale
	if !(math.Abs(x) < 127) {
		switch {
		case x != x:
			return 0
		case x > 0:
			return 127
		}
		return -127
	}
	t := int32(x)
	f := x - float64(t)
	return t + int32(f+f)
}

// quantizeInto is the int8q encoder: it writes into dst the codes of src +
// res, element by element, and returns the scale, max finite |src + res| /
// 127 — 0 when every element is zero or non-finite (or so small that the
// quotient underflows), which codes every element as 0. Pass one folds the
// residual in under the running max, keeping v = r + g in res; pass two codes
// v and leaves in res what the code dropped, v − code·scale. A nil res is a
// zero residual that is not kept: the codes of src alone.
//
// A frame used to be quantized twice: error feedback put the chunk on its
// grid as decoded values, and the encoder derived the grid again from them.
// The second trip found the same scale and codes for every scale in the
// normal range, so a frame is byte for byte what it was. Two kinds of frame
// could move in that second trip, and now ship the first one: a frame whose
// largest magnitude is below about 1e-305, a scale with the few bits a
// subnormal has, and one whose largest magnitude is within a rounding of
// MaxFloat64, where the decoded 127·scale overflowed.
func quantizeInto(dst []byte, src, res []float64) float64 {
	dst = dst[:len(src)]
	maxAbs := 0.0
	if res == nil {
		for _, v := range src {
			maxAbs = quantMax(maxAbs, v)
		}
	} else {
		res = res[:len(src)]
		for i, g := range src {
			v := res[i] + g
			res[i] = v
			maxAbs = quantMax(maxAbs, v)
		}
	}
	scale := maxAbs / 127
	switch {
	case scale == 0:
		clear(dst) // res keeps all of v: nothing of it ships
	case res == nil:
		for i, v := range src {
			dst[i] = byte(quantCode(v, scale))
		}
	default:
		dst := dst[:len(res)]
		for i, v := range res {
			q := quantCode(v, scale)
			dst[i] = byte(q)
			res[i] = v - float64(float64(q)*scale)
		}
	}
	return scale
}

// LossyRoundTrip applies dt's encode→decode value mapping to data + residual
// in place — exactly what a receiver would see had the slice crossed the wire
// as one dt-encoded frame with that residual — and leaves in residual (nil,
// or as long as data) what the mapping dropped. Transport loopback uses it so
// a self-send observes the same values remote ranks do. DTF64 is the
// identity and leaves residual alone.
func LossyRoundTrip(dt DType, data, residual []float64) {
	switch dt {
	case DTF32:
		for i, v := range data {
			if residual != nil {
				v = residual[i] + v
				residual[i] = v - float64(float32(v))
			}
			data[i] = float64(float32(v))
		}
	case DTInt8Q:
		codes := getFrameBuf(len(data))
		scale := quantizeInto(codes, data, residual)
		for i, q := range codes {
			data[i] = float64(int8(q)) * scale
		}
		putFrameBuf(codes)
	}
}

// Header describes one frame.
type Header struct {
	Kind  uint8
	From  int
	To    int
	Tag   int
	DType DType
	Shape []int
}

// frameBufs pools encode/decode staging buffers: steady-state frame traffic
// reuses a small set of []byte backing arrays instead of allocating per
// message.
var frameBufs sync.Pool

func getFrameBuf(n int) []byte {
	if v := frameBufs.Get(); v != nil {
		b := *(v.(*[]byte))
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

func putFrameBuf(b []byte) {
	frameBufs.Put(&b)
}

// EncodeFrame serializes header + data into a pooled buffer ready for one
// Write call. The returned slice belongs to the wire layer: hand it to
// putFrameBuf (via a conn writer) after the write completes. data may be nil
// for control frames. withCRC appends a CRC32-IEEE trailer over the payload.
func EncodeFrame(h *Header, data []float64, withCRC bool) []byte {
	return encodeFrame(h, data, nil, withCRC)
}

// encodeFrame is EncodeFrame with error feedback: a lossy dtype encodes data
// + residual and leaves in residual (nil, or as long as data) what the frame
// dropped; DTF64 ships data exactly and leaves residual alone. A nil residual
// gives EncodeFrame's bytes.
func encodeFrame(h *Header, data, residual []float64, withCRC bool) []byte {
	if !h.DType.valid() {
		panic(fmt.Sprintf("dist: encode with invalid dtype %d", h.DType))
	}
	if len(h.Shape) > maxWireRank {
		panic(fmt.Sprintf("dist: encode rank %d exceeds wire limit %d", len(h.Shape), maxWireRank))
	}
	if residual != nil && len(residual) != len(data) {
		panic(fmt.Sprintf("dist: encode residual of %d elements for a payload of %d", len(residual), len(data)))
	}
	total := frameSize(h, len(data), withCRC)
	buf := getFrameBuf(total)
	off := putFrameHeader(buf, h, withCRC, total)
	switch h.DType {
	case DTF64:
		off += encodeF64s(buf[off:], data)
	case DTF32:
		for i, v := range data {
			if residual != nil {
				v = residual[i] + v
				residual[i] = v - float64(float32(v))
			}
			binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(float32(v)))
			off += 4
		}
	case DTInt8Q:
		scale := quantizeInto(buf[off+8:], data, residual)
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(scale))
		off += 8 + len(data)
	}
	if withCRC {
		crc := crc32.ChecksumIEEE(buf[4:off]) // header + dims + payload
		binary.LittleEndian.PutUint32(buf[off:], crc)
	}
	return buf
}

// frameSize is the encoded size of a frame of elems elements, length prefix
// included.
func frameSize(h *Header, elems int, withCRC bool) int {
	total := headerFixed + 4*len(h.Shape) + h.DType.payloadBytes(elems)
	if withCRC {
		total += 4
	}
	return total
}

// lentHdrLen is what surrounds a lent payload on the wire: length prefix,
// fixed header and the one dim of a flat shape, then the CRC trailer.
const lentHdrLen = headerFixed + 4 + 4

// lendFrame is EncodeFrame for a flat DTF64 frame whose payload stays where
// it is: it fills hdr so that hdr's head, img, and hdr's tail (lentHdrParts),
// written back to back, are byte for byte the frame EncodeFrame returns for
// the same header and elements.
func lendFrame(hdr *[lentHdrLen]byte, h *Header, img []byte, withCRC bool) {
	off := putFrameHeader(hdr[:], h, withCRC, frameSize(h, len(img)/8, withCRC))
	if withCRC {
		crc := crc32.Update(crc32.ChecksumIEEE(hdr[4:off]), crc32.IEEETable, img)
		binary.LittleEndian.PutUint32(hdr[off:], crc)
	}
}

// lentHdrParts cuts a lendFrame header into what precedes the payload and
// what follows it (nothing without a CRC).
func lentHdrParts(hdr *[lentHdrLen]byte, withCRC bool) (head, tail []byte) {
	const cut = lentHdrLen - 4
	if withCRC {
		return hdr[:cut], hdr[cut:]
	}
	return hdr[:cut], nil
}

// putFrameHeader writes the length prefix, fixed header, and dims into buf,
// returning the payload offset. Shared by EncodeFrame and lendFrame.
func putFrameHeader(buf []byte, h *Header, withCRC bool, total int) int {
	binary.LittleEndian.PutUint32(buf[0:], uint32(total-4))
	buf[4] = wireMagic
	buf[5] = wireVersion
	var flags uint8
	if withCRC {
		flags |= flagCRC
	}
	buf[6] = flags
	buf[7] = h.Kind
	binary.LittleEndian.PutUint32(buf[8:], uint32(int32(h.From)))
	binary.LittleEndian.PutUint32(buf[12:], uint32(int32(h.To)))
	binary.LittleEndian.PutUint64(buf[16:], uint64(int64(h.Tag)))
	buf[24] = byte(h.DType)
	buf[25] = byte(len(h.Shape))
	off := headerFixed
	for _, d := range h.Shape {
		binary.LittleEndian.PutUint32(buf[off:], uint32(int32(d)))
		off += 4
	}
	return off
}

// recycleFrameBuf returns an encoded frame's storage to the pool. Exposed to
// the conn writer; callers must hold the only reference.
func recycleFrameBuf(b []byte) { putFrameBuf(b) }

// Decoder reads frames from a stream, reusing one staging buffer across
// calls. Not safe for concurrent use (one Decoder per connection).
type Decoder struct {
	r io.Reader
	// buf stages every payload that is not read in place: f32, int8q and
	// control frames (and f64 ones in builds without a memory image).
	buf []byte
	// hdr and word are the header and the length-prefix / CRC-trailer read
	// buffers: fields rather than locals because they are read through the
	// io.Reader interface and would otherwise escape to the heap every frame.
	hdr  [headerFixed - 4 + 4*maxWireRank]byte
	word [4]byte
	// dims is the reusable shape scratch handed out via Header.Shape; callers
	// must not retain it across ReadFrame calls.
	dims [maxWireRank]int
}

// NewDecoder wraps r (typically a bufio.Reader over a conn).
func NewDecoder(r io.Reader) *Decoder { return &Decoder{r: r} }

// ErrCorruptFrame wraps all header-validation failures so transports can
// distinguish "the stream is broken" from a clean EOF.
type ErrCorruptFrame struct{ Reason string }

func (e *ErrCorruptFrame) Error() string { return "dist: corrupt frame: " + e.Reason }

func corrupt(format string, args ...any) error {
	return &ErrCorruptFrame{Reason: fmt.Sprintf(format, args...)}
}

// ReadFrame reads the next frame. For data frames it returns a pooled tensor
// decoded from the payload — the receive buffer is pool-owned: the consumer
// must tensor.Recycle it (or transfer ownership onward) after use, per the
// serialized-tensor ownership rule. For control frames the tensor is nil.
// The returned Header (including its Shape slice) is only valid until the
// next ReadFrame call. A clean EOF at a frame boundary returns io.EOF;
// mid-frame truncation returns io.ErrUnexpectedEOF.
//
// The fixed header and dims are read and validated before the payload buffer
// is sized, so a corrupt or desynced length prefix fails on its garbage
// header bytes instead of driving a giant allocation.
func (d *Decoder) ReadFrame() (Header, *tensor.Tensor, error) {
	if _, err := io.ReadFull(d.r, d.word[:]); err != nil {
		return Header{}, nil, err // io.EOF at a frame boundary is clean
	}
	frameLen := int(binary.LittleEndian.Uint32(d.word[:]))
	// The decode span opens after the length prefix arrives: blocking on an
	// idle stream is wait, not decode; once a frame has started, the rest
	// follows in the same burst.
	hd := obs.Track(scWireDecode)
	h, t, err := d.readFrameBody(frameLen)
	hd.StopBytes(int64(frameLen) + 4)
	if err == nil && h.Kind == frameData {
		obs.Add(cFramesRecvd, 1)
		obs.Add(cBytesRecvd, int64(frameLen)+4)
	}
	return h, t, err
}

// truncated wraps a short read inside a frame: the stream ended, or broke,
// after the length prefix promised more.
func truncated(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("dist: truncated frame: %w", err)
}

func (d *Decoder) readFrameBody(frameLen int) (Header, *tensor.Tensor, error) {
	const fixed = headerFixed - 4 // header bytes after the length prefix
	if frameLen < fixed {
		return Header{}, nil, corrupt("frame length %d shorter than header", frameLen)
	}
	if frameLen > maxFrameElems*8+headerFixed+4*maxWireRank {
		return Header{}, nil, corrupt("frame length %d exceeds limit", frameLen)
	}
	hdr := d.hdr[:]
	if _, err := io.ReadFull(d.r, hdr[:fixed]); err != nil {
		return Header{}, nil, truncated(err)
	}
	if hdr[0] != wireMagic {
		return Header{}, nil, corrupt("bad magic 0x%02x", hdr[0])
	}
	if hdr[1] != wireVersion {
		return Header{}, nil, corrupt("unsupported wire version %d", hdr[1])
	}
	if k := hdr[3]; k != frameData && k != frameHello && k != frameGoodbye {
		return Header{}, nil, corrupt("unknown frame kind %d", k)
	}
	withCRC := hdr[2]&flagCRC != 0
	h := Header{
		Kind:  hdr[3],
		From:  int(int32(binary.LittleEndian.Uint32(hdr[4:]))),
		To:    int(int32(binary.LittleEndian.Uint32(hdr[8:]))),
		Tag:   int(int64(binary.LittleEndian.Uint64(hdr[12:]))),
		DType: DType(hdr[20]),
	}
	rank := int(hdr[21])
	if !h.DType.valid() {
		return Header{}, nil, corrupt("unknown dtype %d", h.DType)
	}
	if rank > maxWireRank {
		return Header{}, nil, corrupt("rank %d exceeds wire limit %d", rank, maxWireRank)
	}
	if frameLen < fixed+4*rank {
		return Header{}, nil, corrupt("frame too short for %d dims", rank)
	}
	if _, err := io.ReadFull(d.r, hdr[fixed:fixed+4*rank]); err != nil {
		return Header{}, nil, truncated(err)
	}
	hdr = hdr[:fixed+4*rank]
	elems := 1
	dims := d.dims[:rank]
	for i := range dims {
		dim := int(int32(binary.LittleEndian.Uint32(hdr[fixed+4*i:])))
		if dim < 0 {
			return Header{}, nil, corrupt("negative dim %d", dim)
		}
		dims[i] = dim
		elems *= dim
		// Checked per dim: the running product stays ≤ maxFrameElems×2^31, so
		// it can never wrap an int64 and sneak a huge shape past the cap.
		if elems > maxFrameElems {
			return Header{}, nil, corrupt("payload of %d+ elements exceeds limit", elems)
		}
	}
	h.Shape = dims
	payloadLen := h.DType.payloadBytes(elems)
	rest := payloadLen // payload (+ CRC trailer) still on the stream
	if withCRC {
		rest += 4
	}
	if frameLen != len(hdr)+rest {
		return Header{}, nil, corrupt("frame length %d does not match header (want %d)", frameLen, len(hdr)+rest)
	}
	if d.short(rest) {
		return Header{}, nil, truncated(io.ErrUnexpectedEOF)
	}
	if h.Kind == frameData && h.DType == DTF64 {
		// Read in place: the payload lands in the storage of the pooled tensor
		// the consumer will recycle, the trailer after it. Every error path
		// below owns t and hands it back to the pool.
		t := tensor.GetScratchShaped(dims...)
		payload, err := decodeF64s(d.r, t.Data(), &d.buf)
		if err == nil && withCRC {
			_, err = io.ReadFull(d.r, d.word[:])
		}
		if err != nil {
			tensor.Recycle(t)
			return Header{}, nil, truncated(err)
		}
		if withCRC {
			if err := checkCRC(hdr, payload, d.word[:]); err != nil {
				tensor.Recycle(t)
				return Header{}, nil, err
			}
		}
		return h, t, nil
	}
	if cap(d.buf) < rest {
		d.buf = make([]byte, rest)
	}
	buf := d.buf[:rest]
	if _, err := io.ReadFull(d.r, buf); err != nil {
		return Header{}, nil, truncated(err)
	}
	payload := buf[:payloadLen]
	if withCRC {
		if err := checkCRC(hdr, payload, buf[payloadLen:]); err != nil {
			return Header{}, nil, err
		}
	}
	if h.Kind != frameData {
		return h, nil, nil
	}
	// The payload is decoded out of the staging buffer into a pooled tensor,
	// which the consumer recycles after use.
	t := tensor.GetScratchShaped(dims...)
	dst := t.Data()
	switch h.DType {
	case DTF32:
		for i := range dst {
			dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:])))
		}
	case DTInt8Q:
		scale := math.Float64frombits(binary.LittleEndian.Uint64(payload))
		if math.IsNaN(scale) || math.IsInf(scale, 0) || scale < 0 {
			tensor.Recycle(t)
			return Header{}, nil, corrupt("int8q scale %v", scale)
		}
		q := payload[8:]
		for i := range dst {
			dst[i] = float64(int8(q[i])) * scale
		}
	}
	return h, t, nil
}

// short reports that the stream is known to end within the next n bytes. An
// in-memory stream knows its length, so a frame that overruns it is
// truncated before a tensor is sized for what it claims (up to maxFrameElems,
// 2 GiB, which bounds what a socket can make the decoder size).
func (d *Decoder) short(n int) bool {
	br, ok := d.r.(*bytes.Reader)
	return ok && br.Len() < n
}

// checkCRC verifies a frame's CRC32 trailer over everything after the length
// prefix: hdr (fixed header + dims) and the payload bytes as they crossed the
// wire.
func checkCRC(hdr, payload, trailer []byte) error {
	crc := crc32.Update(crc32.ChecksumIEEE(hdr), crc32.IEEETable, payload)
	if got := binary.LittleEndian.Uint32(trailer); crc != got {
		obs.Add(cCRCFail, 1)
		return corrupt("frame CRC mismatch: computed %08x, frame carries %08x", crc, got)
	}
	return nil
}
