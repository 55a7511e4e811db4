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
// The assembler writes each sample cell as one run of edges sharing its
// (hop, parent), the layers after the seed as those cells' children in
// order, and the features in their JSON keys' order (byKeyString);
// AppendResult writes them in map order. Readers take any order.
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

// The text memo (DESIGN.md "Response path") holds the gateway text of
// feature rows and sample cells. An entry owns a copy of the bytes its text
// was formatted from, a finite row's float32 bits or a cell's run of edges,
// and answers only for its key and kind with byte-equal bits. Entries are
// immutable, in a fixed table of atomic pointers probed at a key's set of
// four slots; one is stored on its second miss (admit).
type textEntry struct {
	key         uint64 // a row's vertex id, or a cell's runKey
	edges       int    // a cell's edge count; 0 for a row
	bits        []byte // a row's float32 bits, or a cell's run; its capacity spans all four
	kids, layer []byte // a cell's children's bytes, and their text
	text        []byte // a row's `"id":[…]`, or a cell's edges
}

const (
	textBits   = 13      // 8 192 slots: 64 KiB of pointers, 16 KiB of fingerprints
	memoBudget = 3 << 20 // the entries' bytes
)

var (
	textMemo       [1 << textBits]atomic.Pointer[textEntry]
	textSeen       [1 << textBits / 4]atomic.Uint64
	memoBytes      atomic.Int64                        // the entries' sizes
	memoHand       atomic.Uint64                       // the next slot to drop to make room
	castagnoli     = crc32.MakeTable(crc32.Castagnoli) // hardware crc32 on amd64 and arm64
	rowsFormatted  atomic.Uint64                       // the memo's misses, process-wide
	cellsFormatted atomic.Uint64
)

// textSlot is the first slot of key's set; Fibonacci hashing spreads
// consecutive keys.
func textSlot(key uint64) uint64 { return (key * 0x9e3779b97f4a7c15 >> (64 - textBits)) &^ 3 }

// runKey keys the cell of (hop, parent) apart from parent's feature row.
func runKey(hop, parent uint64) uint64 { return parent ^ (hop+1)*0xbf58476d1ce4e5b9 }

// FormattedRows and FormattedCells report how many feature rows and sample
// cells AppendJSON has formatted in this process: work-ledger rows for
// tests, not exported series.
func FormattedRows() uint64  { return rowsFormatted.Load() }
func FormattedCells() uint64 { return cellsFormatted.Load() }

// memoGet returns an entry of key whose bits b begins with; the caller
// checks that they are all of the row or cell.
//
//lint:hotpath
func memoGet(cell bool, key uint64, b []byte) *textEntry {
	p := textSlot(key)
	for i := p; i < p+4; i++ {
		if e := textMemo[i].Load(); e != nil && e.key == key && (e.edges > 0) == cell && bytes.HasPrefix(b, e.bits) {
			return e
		}
	}
	return nil
}

// admit reports whether (key, bits), just formatted, is to be stored: if
// it was formatted before. textSeen keeps, per set, 16-bit fingerprints of
// the last four formatted there and not stored.
func admit(key uint64, bits []byte) bool {
	set := textSlot(key) / 4
	f := (uint64(crc32.Checksum(bits, castagnoli))<<32^key)*0x9e3779b97f4a7c15>>48 | 1
	last := textSeen[set].Load()
	for i := 0; i < 64; i += 16 {
		if last>>i&0xffff == f {
			return true
		}
	}
	textSeen[set].Store(last<<16 | f)
	return false
}

// memoPut stores an entry owning one copy of bits, kids, layer and text in
// the first slot of key's set that is empty or holds key, or in its last.
// One that would take the entries past memoBudget first drops those under
// a clock hand, up to 64.
func memoPut(edges int, key uint64, bits, kids, layer, text []byte) {
	a, b, c := len(bits), len(bits)+len(kids), len(bits)+len(kids)+len(layer)
	owned := append(append(append(append(make([]byte, 0, c+len(text)), bits...), kids...), layer...), text...)
	e := &textEntry{key: key, edges: edges, bits: owned[:a], kids: owned[a:b:b], layer: owned[b:c:c], text: owned[c:]}
	for hand := 0; memoBytes.Add(e.size()) > memoBudget; hand++ {
		memoBytes.Add(-e.size())
		if hand == 64 {
			return
		}
		memoDrop(&textMemo[memoHand.Add(1)%(1<<textBits)], nil)
	}
	p := textSlot(key)
	for end := p + 3; p < end; p++ {
		if old := textMemo[p].Load(); old == nil || old.key == key && (old.edges > 0) == (edges > 0) {
			break
		}
	}
	memoDrop(&textMemo[p], e)
}

// memoDrop puts e in slot and takes what it held off the memo's bytes.
func memoDrop(slot *atomic.Pointer[textEntry], e *textEntry) {
	if old := slot.Swap(e); old != nil {
		memoBytes.Add(-old.size())
	}
}

// size is what e counts against memoBudget: its buffer (whose length is
// bits' capacity) and the entry itself.
func (e *textEntry) size() int64 { return int64(cap(e.bits) + 112) }

// cellRun is one sample cell in the payload: a run of consecutive edges
// that share their hop and parent bytes, and the entry holding its text.
type cellRun struct {
	hop, parent uint64
	run         []byte
	memo        *textEntry
}

// transcodeScratch is AppendJSON's pooled index of one payload, cleared
// before it is shared so it pins no frame.
type transcodeScratch struct {
	layers [][]byte // each layer's vertex bytes
	cells  []cellRun
	kids   []byte       // a formatted cell's children's bytes
	feats  []featureRef // a features section out of key order,
	sorted codec.Writer // and in it
}

var transcodeScratches = sync.Pool{New: func() any { return new(transcodeScratch) }}

// AppendJSON appends the gateway's GET /sample body for this result to
// dst. The bytes are exactly what encoding/json writes for the {layers,
// edges, features, misses, trace} object the gateway has always served,
// trailing newline included: trace (hex) is omitted when zero, an absent
// layer or edge list is null, features are ordered by key string, and
// floats follow encoding/json's float32 rule (appendFloat32). Each cell's,
// layer's and row's text is copied from the text memo where it holds it.
// On error dst comes back at its original length.
//
//lint:hotpath
func (e Encoded) AppendJSON(dst []byte, trace uint64) ([]byte, error) {
	start := len(dst)
	var r codec.Reader
	r.Reset(e)
	h := readHeader(&r)
	s := transcodeScratches.Get().(*transcodeScratch)
	for i, nl := 0, r.Count(minLayer); i < nl; i++ {
		n := r.Count(minVertex)
		layer := r.Rest()
		for j := 0; j < n; j++ {
			r.Uvarint()
		}
		s.layers = append(s.layers, layer[:len(layer)-r.Remaining()])
	}
	for i, ne := 0, r.Count(minEdge); i < ne && r.Err() == nil; i++ {
		at := len(e) - r.Remaining()
		hop, parent := r.Uvarint(), r.Uvarint()
		head := e[at : len(e)-r.Remaining()]
		r.Uvarint()
		r.Varint()
		r.Float32()
		end := len(e) - r.Remaining()
		if k := len(s.cells) - 1; k >= 0 && continues(s.cells[k].run, e[at:end], head) {
			s.cells[k].run = s.cells[k].run[:len(s.cells[k].run)+end-at] // the next bytes of e
			continue
		}
		// A run the memo holds is stepped over whole: its bytes were checked
		// when it was formatted, and it must end where they do.
		c := cellRun{hop: hop, parent: parent, run: e[at:end]}
		if m := memoGet(true, runKey(hop, parent), e[at:]); m != nil && m.edges <= ne-i && !continues(e[at+len(m.bits):], e[at:end], head) {
			c.run, c.memo = e[at:at+len(m.bits)], m
			r.RawN(len(m.bits) - (end - at))
			i += m.edges - 1
		}
		s.cells = append(s.cells, c)
	}
	err := r.Err()
	if err == nil {
		dst, err = s.appendFeatures(s.appendListed(dst), &r)
	}
	clear(s.layers)
	clear(s.cells)
	clear(s.feats)
	s.layers, s.cells, s.feats = s.layers[:0], s.cells[:0], s.feats[:0]
	transcodeScratches.Put(s)
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

// continues reports whether the edges at a and at b are of one run: a's
// first edge has the hop and parent bytes (head) of b's and is not b's
// again. A parent listed twice in a row in the hop before repeats its
// whole cell, and the repeat is a run of its own.
//
//lint:hotpath
func continues(a, b, head []byte) bool {
	return bytes.HasPrefix(a, head) && !bytes.HasPrefix(a, b)
}

// appendListed writes the layers and edges s found.
//
//lint:hotpath
func (s *transcodeScratch) appendListed(dst []byte) []byte {
	dst = append(dst, `{"layers":`...)
	if len(s.layers) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, layer := range s.layers {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(appendLayer(append(dst, '['), layer, uint64(i)-1, s.cells), ']')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"edges":`...)
	if len(s.cells) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range s.cells {
			if i > 0 {
				dst = append(dst, ',')
			}
			if c := &s.cells[i]; c.memo != nil {
				dst = append(dst, c.memo.text...)
			} else {
				dst = s.formatCell(dst, c)
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, `,"features":{`...)
}

// appendFeatures appends the feature members and checks the end of the
// payload. Rows in key order, as the worker sends them, are written as
// they are read; a section in any other order is sorted first.
//
//lint:hotpath
func (s *transcodeScratch) appendFeatures(dst []byte, r *codec.Reader) ([]byte, error) {
	from, start := *r, len(dst)
	var prev, ref featureRef
	var err error
	for i, nf := 0, r.Count(minFeature); i < nf; i++ {
		id := r.Uvarint()
		prev, ref = ref, featureRef{order: decimalOrder(id), id: id, floats: r.RawN(4 * r.Count(4))}
		if c := byKeyString(prev, ref); i > 0 && c > 0 && r.Err() == nil {
			*r = from
			return s.sortFeatures(dst[:start], r)
		} else if i > 0 && c == 0 && err == nil {
			err = errDuplicateFeature
		}
		if err == nil {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst, err = appendFeature(dst, ref)
		}
	}
	return dst, cmp.Or(r.Finish(), err)
}

// sortFeatures rewrites r's features section in key order and appends it.
func (s *transcodeScratch) sortFeatures(dst []byte, r *codec.Reader) ([]byte, error) {
	for i, nf := 0, r.Count(minFeature); i < nf; i++ {
		id := r.Uvarint()
		s.feats = append(s.feats, featureRef{order: decimalOrder(id), id: id, floats: r.RawN(4 * r.Count(4))})
	}
	if err := r.Finish(); err != nil {
		return dst, err
	}
	slices.SortFunc(s.feats, byKeyString)
	s.sorted.Reset()
	s.sorted.Uvarint(uint64(len(s.feats)))
	for _, f := range s.feats {
		s.sorted.Uvarint(f.id)
		s.sorted.Uvarint(uint64(len(f.floats) / 4))
		s.sorted.Raw(f.floats)
	}
	r.Reset(s.sorted.Bytes())
	return s.appendFeatures(dst, r)
}

// appendLayer appends a layer's text: copied from the entries of the cells
// of hop when their children's bytes, concatenated, are the layer's, and
// formatted otherwise.
//
//lint:hotpath
func appendLayer(dst, layer []byte, hop uint64, cells []cellRun) []byte {
	start, rest := len(dst), layer
	for i := range cells {
		if c := &cells[i]; c.hop == hop {
			if c.memo == nil || !bytes.HasPrefix(rest, c.memo.kids) {
				return appendUvarints(dst[:start], layer)
			}
			if len(rest) < len(layer) {
				dst = append(dst, ',')
			}
			dst = append(dst, c.memo.layer...)
			rest = rest[len(c.memo.kids):]
		}
	}
	if len(rest) != 0 {
		return appendUvarints(dst[:start], layer)
	}
	return dst
}

// appendUvarints appends the uvarints b holds, comma separated.
//
//lint:hotpath
func appendUvarints(dst, b []byte) []byte {
	var r codec.Reader
	for r.Reset(b); r.Remaining() > 0 && r.Err() == nil; {
		if len(b) > r.Remaining() {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, r.Uvarint(), 10)
	}
	return dst
}

// formatCell appends the edges of a cell the memo does not hold, and
// offers the memo their text with the cell's children's bytes and theirs.
func (s *transcodeScratch) formatCell(dst []byte, c *cellRun) []byte {
	start, edges := len(dst), 0
	s.kids = s.kids[:0]
	var r codec.Reader
	for r.Reset(c.run); r.Remaining() > 0 && r.Err() == nil; edges++ {
		if edges > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(append(dst, `{"hop":`...), int64(r.Uvarint()), 10)
		dst = strconv.AppendUint(append(dst, `,"parent":`...), r.Uvarint(), 10)
		kid := r.Rest()
		dst = strconv.AppendUint(append(dst, `,"child":`...), r.Uvarint(), 10)
		s.kids = append(s.kids, kid[:len(kid)-r.Remaining()]...)
		dst = append(strconv.AppendInt(append(dst, `,"ts":`...), r.Varint(), 10), '}')
		r.Float32()
	}
	cellsFormatted.Add(1)
	if key := runKey(c.hop, c.parent); admit(key, c.run) {
		end := len(dst) // the children's text goes here for the entry to copy
		dst = appendUvarints(dst, s.kids)
		memoPut(edges, key, c.run, s.kids, dst[end:], dst[start:end])
		dst = dst[:end]
	}
	return dst
}

// appendFeature appends one feature member, `"id":[…]` (null when the row
// is empty, as a decoded Result holds nil for it), copied from the memo
// when it holds this id with these bits.
//
//lint:hotpath
func appendFeature(out []byte, ref featureRef) ([]byte, error) {
	if e := memoGet(false, ref.id, ref.floats); e != nil && len(e.bits) == len(ref.floats) {
		return append(out, e.text...), nil
	}
	start := len(out)
	out = strconv.AppendUint(append(out, '"'), ref.id, 10)
	if len(ref.floats) == 0 {
		return append(out, `":null`...), nil
	}
	out = append(out, `":[`...)
	for off := 0; off < len(ref.floats); off += 4 {
		bits := binary.LittleEndian.Uint32(ref.floats[off:])
		if bits&0x7f800000 == 0x7f800000 { // NaN or ±Inf
			return out, &FeatureValueError{Vertex: graph.VertexID(ref.id), Value: math.Float32frombits(bits)}
		}
		out = append(appendFloat32(out, math.Float32frombits(bits)), ',')
	}
	out[len(out)-1] = ']'
	rowsFormatted.Add(1)
	if admit(ref.id, ref.floats) {
		memoPut(0, ref.id, ref.floats, nil, nil, out[start:])
	}
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
