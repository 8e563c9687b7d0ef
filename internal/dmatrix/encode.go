package dmatrix

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary codec for Matrix, used by the store's disk artifact tier. The
// encoding is exact: float64 values round-trip bit-for-bit, so a matrix
// read back from disk is indistinguishable from the one written — the
// property the disk tier's byte-identical restart parity rests on.
//
// Layout (all little-endian):
//
//	byte 0      storage mode: always 0 (float64); any other value is
//	            rejected as corrupt
//	bytes 1-8   n (uint64)
//	bytes 9-16  m (uint64)
//	then n*m float64 values, 8 bytes each

const (
	matrixHeaderLen = 1 + 8 + 8
	modeFloat64     = 0
)

// Marshal encodes the matrix.
func (m *Matrix) Marshal() []byte {
	out := make([]byte, matrixHeaderLen+8*len(m.vals))
	out[0] = modeFloat64
	binary.LittleEndian.PutUint64(out[1:], uint64(m.n))
	binary.LittleEndian.PutUint64(out[9:], uint64(m.m))
	for k, v := range m.vals {
		binary.LittleEndian.PutUint64(out[matrixHeaderLen+8*k:], math.Float64bits(v))
	}
	return out
}

// Unmarshal decodes a matrix produced by Marshal, rejecting any size or
// mode inconsistency (the disk tier treats an error as a torn artifact).
func Unmarshal(data []byte) (*Matrix, error) {
	if len(data) < matrixHeaderLen {
		return nil, fmt.Errorf("dmatrix: %d bytes is shorter than the header", len(data))
	}
	if mode := data[0]; mode != modeFloat64 {
		return nil, fmt.Errorf("dmatrix: unknown storage mode %d", mode)
	}
	n := binary.LittleEndian.Uint64(data[1:])
	mm := binary.LittleEndian.Uint64(data[9:])
	cells := n * mm
	// Guard the multiplication and the allocation against a corrupt header.
	const maxCells = 1 << 40
	if (mm != 0 && cells/mm != n) || cells > maxCells {
		return nil, fmt.Errorf("dmatrix: implausible dimensions %dx%d", n, mm)
	}
	body := data[matrixHeaderLen:]
	if uint64(len(body)) != 8*cells {
		return nil, fmt.Errorf("dmatrix: %d value bytes for %dx%d grid", len(body), n, mm)
	}
	m := &Matrix{n: int(n), m: int(mm), vals: make([]float64, cells)}
	for k := range m.vals {
		m.vals[k] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*k:]))
	}
	return m, nil
}
