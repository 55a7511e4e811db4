package serving

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"helios/internal/codec"
	"helios/internal/graph"
	"helios/internal/obs"
)

// The wire form of a Result. A small header comes first, so a reader that
// only wants the counters or the stage spans never walks the body:
//
//	header  sampleMisses featureMisses lookups   uvarint each
//	        #stages { name string, dur varint }
//	body    #layers { #vertices { id uvarint } }
//	        #edges  { hop parent child uvarint, ts varint, weight f32 }
//	        #features { id uvarint, #floats { f32 } }
//
// Minimum encoded sizes of one element of each collection, for
// codec.Reader.Count.
const (
	minStage   = 2 // empty name + dur
	minVertex  = 1
	minLayer   = 1 // an empty layer is its count
	minEdge    = 8 // hop, parent, child, ts + 4-byte weight
	minFeature = 2 // id + empty vector
)

// AppendResult encodes a Result. The serve path never builds one: the
// assembler appends the same layout straight from the cache's cells.
func AppendResult(w *codec.Writer, res *Result) {
	appendHeader(w, res.SampleMisses, res.FeatureMisses, res.Lookups, res.Stages)
	w.Uvarint(uint64(len(res.Layers)))
	for _, layer := range res.Layers {
		w.Uvarint(uint64(len(layer)))
		for _, v := range layer {
			w.Uvarint(uint64(v))
		}
	}
	w.Uvarint(uint64(len(res.Edges)))
	for _, e := range res.Edges {
		w.Uvarint(uint64(e.Hop))
		w.Uvarint(uint64(e.Parent))
		w.Uvarint(uint64(e.Child))
		w.Varint(int64(e.Ts))
		w.Float32(e.Weight)
	}
	w.Uvarint(uint64(len(res.Features)))
	for v, f := range res.Features {
		w.Uvarint(uint64(v))
		w.Float32s(f)
	}
}

// appendHeader writes the header of the layout above.
//
//lint:hotpath
func appendHeader(w *codec.Writer, sampleMisses, featureMisses, lookups int, stages []obs.Span) {
	w.Uvarint(uint64(sampleMisses))
	w.Uvarint(uint64(featureMisses))
	w.Uvarint(uint64(lookups))
	w.Uvarint(uint64(len(stages)))
	for _, s := range stages {
		w.String(s.Name)
		w.Varint(s.Dur)
	}
}

// errDuplicateFeature rejects a payload naming one vertex's feature twice:
// a Result holds features in a map, so no encoder produces it, and the two
// readers of the wire form would otherwise have to agree on which copy wins.
var errDuplicateFeature = errors.New("serving: duplicate feature vertex in encoded result")

// DecodeResult parses a Result.
func DecodeResult(r *codec.Reader) (*Result, error) {
	h := readHeader(r)
	res := &Result{
		SampleMisses:  h.SampleMisses,
		FeatureMisses: h.FeatureMisses,
		Lookups:       h.Lookups,
		Stages:        h.Spans(0),
	}
	// The layers share one backing array, sized by a first pass over their
	// section, and the features another (below), each slice capped at its
	// own length: a decode costs a few allocations, not one per layer or
	// feature.
	if nl := r.Count(minLayer); nl > 0 {
		counter, total := *r, 0
		for i := 0; i < nl; i++ {
			n := counter.Count(minVertex)
			for j := 0; j < n; j++ {
				counter.Uvarint()
			}
			total += n
		}
		verts := make([]graph.VertexID, total)
		res.Layers = make([][]graph.VertexID, nl)
		for i := range res.Layers {
			n := r.Count(minVertex)
			layer := verts[:n:n]
			verts = verts[n:]
			for j := range layer {
				layer[j] = graph.VertexID(r.Uvarint())
			}
			res.Layers[i] = layer
		}
	}
	if ne := r.Count(minEdge); ne > 0 {
		res.Edges = make([]SampledEdge, ne)
		for i := range res.Edges {
			res.Edges[i] = SampledEdge{
				Hop:    int(r.Uvarint()),
				Parent: graph.VertexID(r.Uvarint()),
				Child:  graph.VertexID(r.Uvarint()),
				Ts:     graph.Timestamp(r.Varint()),
				Weight: r.Float32(),
			}
		}
	}
	nf := r.Count(minFeature)
	floats := make([]float32, 0, r.Remaining()/4) // the features end the payload
	res.Features = make(map[graph.VertexID][]float32, nf)
	for i := 0; i < nf; i++ {
		v := graph.VertexID(r.Uvarint())
		if _, dup := res.Features[v]; dup {
			return nil, errDuplicateFeature
		}
		at := len(floats)
		floats = r.Float32sAppend(floats)
		var f []float32 // nil when empty, as Float32s reads one
		if n := len(floats); n > at {
			f = floats[at:n:n]
		}
		res.Features[v] = f
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// Encoded is a read-only view over one AppendResult encoding — the form
// a result keeps from the serving worker's response frame to the gateway's
// socket. It aliases the bytes it was made from.
type Encoded []byte

// Header is the fixed-size front of an encoded result.
type Header struct {
	SampleMisses, FeatureMisses, Lookups int
	// StageNS is the sum of the worker's stage span durations; Spans
	// materialises the spans themselves.
	StageNS int64

	stages []byte // the encoded span list, count first
}

// readHeader consumes the header, leaving r at the body. A malformed
// header fails r.
//
//lint:hotpath
func readHeader(r *codec.Reader) Header {
	h := Header{
		SampleMisses:  int(r.Uvarint()),
		FeatureMisses: int(r.Uvarint()),
		Lookups:       int(r.Uvarint()),
	}
	rest := r.Rest()
	for i, n := 0, r.Count(minStage); i < n; i++ {
		r.Bytes32() // name
		h.StageNS += r.Varint()
	}
	if r.Err() == nil {
		h.stages = rest[:len(rest)-r.Remaining()]
	}
	return h
}

// Header reads the front of the payload without walking the body.
//
//lint:hotpath
func (e Encoded) Header() (Header, error) {
	var r codec.Reader
	r.Reset(e)
	h := readHeader(&r)
	return h, r.Err()
}

// Spans decodes the worker's stage spans into a slice with room for extra
// more.
func (h Header) Spans(extra int) []obs.Span {
	r := codec.NewReader(h.stages)
	n := r.Count(minStage)
	if n+extra == 0 {
		return nil
	}
	spans := make([]obs.Span, 0, n+extra)
	for i := 0; i < n; i++ {
		spans = append(spans, obs.Span{Name: spanName(r.Bytes32()), Dur: r.Varint()})
	}
	return spans
}

// spanName returns a span's name, without a copy when it is one of the
// serving stages — which it always is from a serving worker.
func spanName(b []byte) string {
	switch string(b) {
	case obs.StageServingQueueWait:
		return obs.StageServingQueueWait
	case obs.StageServingKHop:
		return obs.StageServingKHop
	case obs.StageServingFeature:
		return obs.StageServingFeature
	}
	return string(b)
}

// Decode materialises the Result, consuming the whole payload.
func (e Encoded) Decode() (*Result, error) {
	r := codec.NewReader(e)
	res, err := DecodeResult(r)
	if err != nil {
		return nil, err
	}
	return res, r.Finish()
}

// FeatureValueError reports a feature component JSON has no spelling for.
type FeatureValueError struct {
	Vertex graph.VertexID
	Value  float32
}

func (e *FeatureValueError) Error() string {
	return fmt.Sprintf("serving: feature of vertex %d holds %v, which JSON cannot carry", uint64(e.Vertex), e.Value)
}

// featureRef locates one feature in the payload. encoding/json emits map
// members ordered by key string; (order, id) sorts vertex ids numerically
// into that order: order is the id's decimal digits left-aligned to 19
// places, so a shorter id that prefixes a longer one ties with it and the
// smaller — the shorter — goes first, as it does among strings.
type featureRef struct {
	order, id uint64
	floats    []byte
}

func decimalOrder(id uint64) uint64 {
	if id >= 1e19 {
		return id / 10
	}
	for id != 0 && id < 1e18 {
		id *= 10
	}
	return id
}

func byKeyString(a, b featureRef) int {
	if c := cmp.Compare(a.order, b.order); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// featureRefs recycles AppendJSON's sort scratch.
var featureRefs = sync.Pool{New: func() any { return new([]featureRef) }}

// The feature-text memo (DESIGN.md "Response path"): an entry owns a copy
// of a finite row's float32 bits and the text appendFloat32 wrote for them,
// and answers only for its id with byte-equal bits. Entries are immutable,
// in a fixed table of atomic pointers probed at an id's two slots. Storing
// a row costs about what formatting it does, so a row is stored on its
// second miss: featureSeen keeps, per slot pair, hashes of the last two rows
// formatted there and not stored.
type textEntry struct {
	id         uint64
	bits, text []byte
}

const textBits = 13 // 8 192 slots: 64 KiB of pointers, 64 KiB of hashes

var (
	featureText   [1 << textBits]atomic.Pointer[textEntry]
	featureSeen   [1 << textBits]atomic.Uint64
	castagnoli    = crc32.MakeTable(crc32.Castagnoli) // hardware crc32 on amd64 and arm64
	rowsFormatted atomic.Uint64                       // the memo's misses, process-wide
)

// textSlot is id's first slot; Fibonacci hashing spreads consecutive ids.
func textSlot(id uint64) uint64 { return (id * 0x9e3779b97f4a7c15 >> (64 - textBits)) &^ 1 }

// FormattedRows reports how many feature rows AppendJSON has formatted in
// this process: a work-ledger row for tests, not an exported series.
func FormattedRows() uint64 { return rowsFormatted.Load() }

// AppendJSON appends the gateway's GET /sample body for this result to
// dst, walking the payload once. The bytes are exactly what encoding/json
// writes for the {layers, edges, features, misses, trace} object the
// gateway has always served, trailing newline included: trace (hex) is
// omitted when zero, an absent layer or edge list is null, features are
// ordered by key string, and floats follow encoding/json's float32 rule
// (appendFloat32; a row read before is copied from the feature-text memo).
// On error dst comes back at its original length.
//
//lint:hotpath
func (e Encoded) AppendJSON(dst []byte, trace uint64) ([]byte, error) {
	start := len(dst)
	var r codec.Reader
	r.Reset(e)
	h := readHeader(&r)
	dst = append(dst, `{"layers":`...)
	if nl := r.Count(minLayer); nl == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := 0; i < nl; i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '[')
			for j, n := 0, r.Count(minVertex); j < n; j++ {
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = strconv.AppendUint(dst, r.Uvarint(), 10)
			}
			dst = append(dst, ']')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"edges":`...)
	if ne := r.Count(minEdge); ne == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := 0; i < ne; i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"hop":`...)
			dst = strconv.AppendInt(dst, int64(r.Uvarint()), 10)
			dst = append(dst, `,"parent":`...)
			dst = strconv.AppendUint(dst, r.Uvarint(), 10)
			dst = append(dst, `,"child":`...)
			dst = strconv.AppendUint(dst, r.Uvarint(), 10)
			dst = append(dst, `,"ts":`...)
			dst = strconv.AppendInt(dst, r.Varint(), 10)
			dst = append(dst, '}')
			r.Float32() // the weight is not part of the gateway's answer
		}
		dst = append(dst, ']')
	}

	scratch := featureRefs.Get().(*[]featureRef)
	refs := (*scratch)[:0]
	for i, nf := 0, r.Count(minFeature); i < nf; i++ {
		id := r.Uvarint()
		refs = append(refs, featureRef{order: decimalOrder(id), id: id, floats: r.RawN(4 * r.Count(4))})
	}
	err := r.Finish()
	if err == nil {
		slices.SortFunc(refs, byKeyString)
		dst = append(dst, `,"features":{`...)
		for i := range refs {
			if i > 0 {
				if refs[i].id == refs[i-1].id {
					err = errDuplicateFeature
					break
				}
				dst = append(dst, ',')
			}
			dst = append(dst, '"')
			dst = strconv.AppendUint(dst, refs[i].id, 10)
			dst = append(dst, `":`...)
			if dst, err = appendFeature(dst, refs[i]); err != nil {
				break
			}
		}
	}
	clear(refs) // drop the aliases into e before the scratch is shared
	*scratch = refs[:0]
	featureRefs.Put(scratch)
	if err != nil {
		return dst[:start], err
	}

	dst = append(dst, `},"misses":`...)
	dst = strconv.AppendInt(dst, int64(h.SampleMisses+h.FeatureMisses), 10)
	if trace != 0 {
		dst = append(dst, `,"trace":"`...)
		dst = strconv.AppendUint(dst, trace, 16)
		dst = append(dst, '"')
	}
	return append(dst, "}\n"...), nil
}

// appendFeature appends one feature vector as a JSON array (null when
// empty, as a decoded Result holds nil for it), from the memo when it
// holds this id with these bits.
//
//lint:hotpath
func appendFeature(out []byte, ref featureRef) ([]byte, error) {
	if len(ref.floats) == 0 {
		return append(out, "null"...), nil
	}
	p := textSlot(ref.id)
	for i := p; i < p+2; i++ {
		if e := featureText[i].Load(); e != nil && e.id == ref.id && bytes.Equal(e.bits, ref.floats) {
			return append(out, e.text...), nil
		}
	}
	return formatFeature(out, ref, p)
}

// formatFeature formats a row the memo does not hold and, if the row is
// finite and was formatted before, stores it in slot p unless that holds
// another id, and in p+1 if it does.
func formatFeature(out []byte, ref featureRef, p uint64) ([]byte, error) {
	start := len(out)
	out = append(out, '[')
	for off := 0; off < len(ref.floats); off += 4 {
		bits := binary.LittleEndian.Uint32(ref.floats[off:])
		if bits&0x7f800000 == 0x7f800000 { // NaN or ±Inf
			return out, &FeatureValueError{Vertex: graph.VertexID(ref.id), Value: math.Float32frombits(bits)}
		}
		out = append(appendFloat32(out, math.Float32frombits(bits)), ',')
	}
	out[len(out)-1] = ']'
	rowsFormatted.Add(1)

	seen := uint64(crc32.Checksum(ref.floats, castagnoli))<<32 ^ ref.id
	if last := featureSeen[p].Load(); last != seen && featureSeen[p+1].Load() != seen {
		featureSeen[p+1].Store(last)
		featureSeen[p].Store(seen)
		return out, nil
	}
	n := len(ref.floats)
	owned := append(ref.floats[:n:n], out[start:]...) // cap n: a new array
	if e := featureText[p].Load(); e != nil && e.id != ref.id {
		p++
	}
	featureText[p].Store(&textEntry{id: ref.id, bits: owned[:n:n], text: owned[n:]})
	return out, nil
}

// appendFloat32 formats f as encoding/json does a float32: shortest
// round-tripping digits, plain notation unless the magnitude is below 1e-6
// or at least 1e21, and then exponent notation with a two-digit negative
// exponent's leading zero removed (e-09 → e-9).
//
//lint:hotpath
func appendFloat32(out []byte, f float32) []byte {
	abs := f
	if abs < 0 {
		abs = -abs
	}
	if abs == 0 || (abs >= 1e-6 && abs < 1e21) {
		return strconv.AppendFloat(out, float64(f), 'f', -1, 32)
	}
	out = strconv.AppendFloat(out, float64(f), 'e', -1, 32)
	if n := len(out); n >= 4 && out[n-4] == 'e' && out[n-3] == '-' && out[n-2] == '0' {
		out[n-2] = out[n-1]
		out = out[:n-1]
	}
	return out
}
