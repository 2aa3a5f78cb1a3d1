//go:build !purego && (386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package dist

import (
	"io"
	"unsafe"
)

// The f64 payload codec of little-endian builds. A DTF64 payload is defined
// as the elements' IEEE-754 bit patterns, little-endian, back to back — which
// on these GOARCHes is the memory of the []float64 itself. So a payload is
// encoded, decoded and lent to the socket as a byte image of the slice: no
// per-element pass, and every bit pattern (NaN payloads, -0, subnormals)
// survives by construction. This file is the repository's only use of
// unsafe; f64image_portable.go is its twin for purego and big-endian builds,
// and the two must stay observably identical apart from f64Image's nil.

// f64Image returns data's wire encoding without copying: the slice's own
// memory. It aliases data — whoever holds the image must not outlive, and
// must not race, writes to data. nil for an empty slice.
func f64Image(data []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(data))), 8*len(data))
}

// encodeF64s writes data's wire encoding to dst and returns its length.
func encodeF64s(dst []byte, data []float64) int {
	return copy(dst[:8*len(data)], f64Image(data))
}

// decodeF64s fills dst with the next len(dst) wire elements of r and returns the
// wire bytes as read, for the caller's CRC: here they are dst's own memory,
// valid until dst is next written. stage is unused in this build.
func decodeF64s(r io.Reader, dst []float64, stage *[]byte) ([]byte, error) {
	img := f64Image(dst)
	_, err := io.ReadFull(r, img)
	return img, err
}
