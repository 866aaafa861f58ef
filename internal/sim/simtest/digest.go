package simtest

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"

	"tianhe/internal/sim"
)

// Digest is an FNV-1a hash over exact schedule content — strings by their
// bytes, numbers by their 64-bit patterns — for the pins that are recorded on
// a parent commit and must survive a rewrite unchanged. The embedded hash
// takes raw bytes where a pin predates this type and framed its strings
// differently.
type Digest struct{ hash.Hash64 }

// NewDigest returns an empty digest.
func NewDigest() Digest { return Digest{fnv.New64a()} }

// Str folds in a NUL-terminated string.
func (d Digest) Str(s string) {
	d.Write([]byte(s))
	d.Write([]byte{0})
}

// U64 folds in v, little-endian.
func (d Digest) U64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.Write(b[:])
}

// Int folds in v sign-extended to 64 bits.
func (d Digest) Int(v int) { d.U64(uint64(int64(v))) }

// Float folds in the bits of f, so -0, NaN payloads and the last ulp count.
func (d Digest) Float(f float64) { d.U64(math.Float64bits(f)) }

// Timeline folds in a timeline's name and every span it recorded — label,
// start, end — in booking order, and returns how many spans that was.
func (d Digest) Timeline(tl *sim.Timeline) int {
	d.Str(tl.Name())
	spans := tl.Spans()
	for _, sp := range spans {
		d.Str(sp.Label)
		d.Float(sp.Start)
		d.Float(sp.End)
	}
	return len(spans)
}
