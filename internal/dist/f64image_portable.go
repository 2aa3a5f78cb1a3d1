//go:build purego || !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package dist

import (
	"encoding/binary"
	"io"
	"math"
)

// The f64 payload codec of purego and big-endian builds: the per-element
// spelling of what f64image_le.go does with one memory image. Same wire
// bytes, same results, one pass over the elements on each side.

// f64Image reports that this build has no zero-copy wire image of a
// []float64: callers that would lend one encode a copy instead.
func f64Image(data []float64) []byte { return nil }

// encodeF64s writes data's wire encoding to dst and returns its length.
func encodeF64s(dst []byte, data []float64) int {
	dst = dst[:8*len(data)]
	for i, v := range data {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
	return len(dst)
}

// decodeF64s fills dst with the next len(dst) wire elements of r and returns the
// wire bytes as read, for the caller's CRC: staged in *stage (grown as
// needed, reused across calls) and valid until the next call.
func decodeF64s(r io.Reader, dst []float64, stage *[]byte) ([]byte, error) {
	n := 8 * len(dst)
	if cap(*stage) < n {
		*stage = make([]byte, n)
	}
	buf := (*stage)[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, err
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return buf, nil
}
