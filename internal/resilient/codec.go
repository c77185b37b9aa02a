package resilient

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Enc serializes checkpoint payloads into a growable byte slice using
// little-endian fixed-width integers for dense arrays and uvarints for
// lengths. It has no error state: encoding into memory cannot fail.
type Enc struct{ buf []byte }

// NewEnc returns an encoder pre-sized for sizeHint bytes.
func NewEnc(sizeHint int) *Enc { return &Enc{buf: make([]byte, 0, sizeHint)} }

// Bytes returns the encoded payload (shared; callers must not modify after
// further writes).
func (e *Enc) Bytes() []byte { return e.buf }

// Uvarint appends an unsigned varint.
func (e *Enc) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Int appends a non-negative int as a uvarint.
func (e *Enc) Int(v int) { e.Uvarint(uint64(v)) }

// U32 appends a fixed-width little-endian uint32.
func (e *Enc) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a fixed-width little-endian uint64.
func (e *Enc) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// U32s appends a length-prefixed []uint32.
func (e *Enc) U32s(vs []uint32) {
	e.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.U32(v)
	}
}

// I32s appends a length-prefixed []int32 (two's-complement as uint32).
func (e *Enc) I32s(vs []int32) {
	e.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.U32(uint32(v))
	}
}

// Raw appends a length-prefixed raw byte slice.
func (e *Enc) Raw(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Strs appends a length-prefixed []string with per-element prefixes.
func (e *Enc) Strs(vs []string) {
	e.Uvarint(uint64(len(vs)))
	for _, s := range vs {
		e.Str(s)
	}
}

// Dec decodes payloads written by Enc. Errors are sticky: after the first
// malformed read every accessor returns zero values, and Err reports the
// failure, so decode sequences read linearly without per-call checks.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec returns a decoder over buf.
func NewDec(buf []byte) *Dec { return &Dec{buf: buf} }

// err2 records a truncation error once, keeping the first offset.
func (d *Dec) err2(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("resilient: truncated checkpoint reading %s at offset %d", what, d.off)
	}
}

// Err returns the sticky decode error.
func (d *Dec) Err() error { return d.err }

// Done reports whether the whole payload was consumed without error.
func (d *Dec) Done() bool { return d.err == nil && d.off == len(d.buf) }

// Uvarint reads an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.err2("uvarint")
		return 0
	}
	d.off += n
	return v
}

// Int reads a non-negative int, rejecting values that overflow int.
func (d *Dec) Int() int {
	v := d.Uvarint()
	if v > math.MaxInt32 {
		// Checkpoint cardinalities are node/edge counts; anything larger
		// than int32 range is corruption, not scale.
		d.err2("int (out of range)")
		return 0
	}
	return int(v)
}

// Count reads the length of a sequence whose items each take at least per
// bytes, rejecting a length that the bytes left cannot hold: a corrupt
// count never sizes an allocation beyond the payload.
func (d *Dec) Count(per int) int {
	n := d.Int()
	if d.err == nil && n > (len(d.buf)-d.off)/per {
		d.err2("count (more items than bytes left)")
		return 0
	}
	return n
}

// U32 reads a fixed-width uint32.
func (d *Dec) U32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.off+4 > len(d.buf) {
		d.err2("uint32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

// U64 reads a fixed-width uint64.
func (d *Dec) U64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.err2("uint64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// Str reads a length-prefixed string.
func (d *Dec) Str() string {
	n := d.Count(1)
	if d.err != nil {
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// U32s reads a length-prefixed []uint32.
func (d *Dec) U32s() []uint32 {
	n := d.Count(4)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(d.buf[d.off+4*i:])
	}
	d.off += 4 * n
	return out
}

// I32s reads a length-prefixed []int32.
func (d *Dec) I32s() []int32 {
	n := d.Count(4)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(d.buf[d.off+4*i:]))
	}
	d.off += 4 * n
	return out
}

// Raw reads a length-prefixed byte slice (copied).
func (d *Dec) Raw() []byte {
	n := d.Count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, d.buf[d.off:])
	d.off += n
	return out
}

// Strs reads a length-prefixed []string, stopping at the first error.
func (d *Dec) Strs() []string {
	n := d.Count(1) // a string takes at least its length byte
	if d.err != nil {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, d.Str())
	}
	return out
}
