// Package codec implements the compact binary wire format used for every
// record Helios moves through its queues and RPC layer: graph updates,
// sample-cache messages, subscription deltas, and checkpoints.
//
// The format is a hand-rolled varint encoding (LEB128 with zigzag for signed
// values) chosen over encoding/gob because records are tiny and hot — a
// sampling worker at paper scale moves millions of records per second
// (Fig. 11), so per-record reflection is unaffordable.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ErrShortBuffer reports a truncated record.
var ErrShortBuffer = errors.New("codec: short buffer")

// Writer appends primitive values to a byte slice. The zero value is ready
// to use; Bytes returns the accumulated encoding.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with the given initial capacity.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Reset discards the accumulated encoding, retaining capacity.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Bytes returns the accumulated encoding. The slice aliases the writer's
// buffer; copy it if the writer will be reused.
func (w *Writer) Bytes() []byte { return w.buf }

// Len reports the number of encoded bytes.
func (w *Writer) Len() int { return len(w.buf) }

// Uvarint appends an unsigned varint.
//
//lint:hotpath
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Varint appends a zigzag-encoded signed varint.
//
//lint:hotpath
func (w *Writer) Varint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

// Byte appends a single byte.
//
//lint:hotpath
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Float32 appends a float32 as 4 little-endian bytes.
//
//lint:hotpath
func (w *Writer) Float32(f float32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, math.Float32bits(f))
}

// Float64 appends a float64 as 8 little-endian bytes.
func (w *Writer) Float64(f float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(f))
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Bytes32 appends a length-prefixed byte slice.
//
//lint:hotpath
func (w *Writer) Bytes32(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Raw appends bytes verbatim, without a length prefix.
//
//lint:hotpath
func (w *Writer) Raw(b []byte) {
	w.buf = append(w.buf, b...)
}

// Float32s appends a length-prefixed []float32.
//
//lint:hotpath
func (w *Writer) Float32s(fs []float32) {
	w.Uvarint(uint64(len(fs)))
	for _, f := range fs {
		w.Float32(f)
	}
}

// Uint64s appends a length-prefixed []uint64.
func (w *Writer) Uint64s(vs []uint64) {
	w.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.Uvarint(v)
	}
}

// Reader consumes primitive values from a byte slice. Decoding failures are
// sticky: after the first error every subsequent read returns the zero value
// and Err reports the failure, so call sites can decode a whole record and
// check once.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a reader over buf. The reader does not copy buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Reset points the reader at buf and clears position and sticky error, so
// one stack-allocated Reader (`var r Reader; r.Reset(buf)`) can decode an
// unbounded stream of records without a per-record heap allocation.
//
//lint:hotpath
func (r *Reader) Reset(buf []byte) { *r = Reader{buf: buf} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining reports the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Rest returns the unread bytes without consuming them. The result aliases
// the reader's buffer.
func (r *Reader) Rest() []byte { return r.buf[r.off:] }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = ErrShortBuffer
	}
}

// Uvarint reads an unsigned varint.
//
//lint:hotpath
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	// One byte is the value; one that ends within the next eight bytes,
	// which cannot overflow, is read with one load, its seven-bit groups
	// gathered in place.
	b := r.buf[r.off:]
	if len(b) > 0 && b[0] < 0x80 {
		r.off++
		return uint64(b[0])
	}
	if len(b) >= 8 {
		x := binary.LittleEndian.Uint64(b)
		if m := ^x & 0x8080808080808080; m != 0 {
			n := bits.TrailingZeros64(m)>>3 + 1
			x &= 1<<(8*n) - 1
			x = x&0x7f | x>>1&(0x7f<<7) | x>>2&(0x7f<<14) | x>>3&(0x7f<<21) | x>>4&(0x7f<<28) | x>>5&(0x7f<<35) | x>>6&(0x7f<<42) | x>>7&(0x7f<<49)
			r.off += n
			return x
		}
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zigzag-encoded signed varint.
//
//lint:hotpath
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// Count reads the length of a collection whose elements each occupy at
// least minElem encoded bytes. A length the remaining input cannot hold —
// which includes every value that would overflow int — fails the reader,
// so a caller may size an allocation or a loop from the result without
// trusting the peer.
//
//lint:hotpath
func (r *Reader) Count(minElem int) int {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(r.Remaining()/minElem) {
		r.fail()
		return 0
	}
	return int(v)
}

// Byte reads one byte.
//
//lint:hotpath
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail()
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Float32 reads a float32.
//
//lint:hotpath
func (r *Reader) Float32() float32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.buf) {
		r.fail()
		return 0
	}
	v := math.Float32frombits(binary.LittleEndian.Uint32(r.buf[r.off:]))
	r.off += 4
	return v
}

// Float64 reads a float64.
func (r *Reader) Float64() float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Count(1)
	if r.err != nil {
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

// Bytes32 reads a length-prefixed byte slice. The result aliases the
// reader's buffer.
func (r *Reader) Bytes32() []byte {
	n := r.Count(1)
	if r.err != nil {
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// RawN reads n bytes verbatim. The result aliases the reader's buffer.
func (r *Reader) RawN(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Remaining() {
		r.fail()
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// Float32s reads a length-prefixed []float32.
func (r *Reader) Float32s() []float32 {
	n := r.Count(4)
	if n == 0 {
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = r.Float32()
	}
	return out
}

// Float32sAppend reads a length-prefixed []float32 into dst, growing it
// only when its capacity is exhausted. Passing a recycled `buf[:0]` makes
// the steady-state decode allocation-free; Float32s is the convenience
// form that always allocates.
//
//lint:hotpath
func (r *Reader) Float32sAppend(dst []float32) []float32 {
	n := r.Count(4)
	for i := 0; i < n; i++ {
		dst = append(dst, r.Float32())
	}
	return dst
}

// Uint64s reads a length-prefixed []uint64.
func (r *Reader) Uint64s() []uint64 {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uvarint()
	}
	return out
}

// Finish returns an error if decoding failed or trailing bytes remain.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("codec: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}
