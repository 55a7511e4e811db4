package codec

import (
	"fmt"

	"helios/internal/graph"
)

// Update encoding: the single hottest record type in the system — every
// graph update crosses the broker once per sampling partition it is routed
// to (Fig. 11 measures millions per second).

// AppendUpdate encodes u into w.
func AppendUpdate(w *Writer, u graph.Update) {
	w.Byte(byte(u.Kind))
	w.Varint(u.Ingested)
	w.Uvarint(u.Trace)
	switch u.Kind {
	case graph.UpdateVertex:
		w.Uvarint(uint64(u.Vertex.ID))
		w.Uvarint(uint64(u.Vertex.Type))
		w.Float32s(u.Vertex.Feature)
	case graph.UpdateEdge:
		w.Uvarint(uint64(u.Edge.Src))
		w.Uvarint(uint64(u.Edge.Dst))
		w.Uvarint(uint64(u.Edge.Type))
		w.Varint(int64(u.Edge.Ts))
		w.Float32(u.Edge.Weight)
	}
}

// EncodeUpdate encodes u into a fresh byte slice.
func EncodeUpdate(u graph.Update) []byte {
	w := NewWriter(32 + 4*len(u.Vertex.Feature))
	AppendUpdate(w, u)
	return w.Bytes()
}

// ReadUpdate decodes one update from r.
func ReadUpdate(r *Reader) (graph.Update, error) {
	var u graph.Update
	u.Kind = graph.UpdateKind(r.Byte())
	u.Ingested = r.Varint()
	u.Trace = r.Uvarint()
	switch u.Kind {
	case graph.UpdateVertex:
		u.Vertex.ID = graph.VertexID(r.Uvarint())
		u.Vertex.Type = graph.VertexType(r.Uvarint())
		u.Vertex.Feature = r.Float32s()
	case graph.UpdateEdge:
		u.Edge.Src = graph.VertexID(r.Uvarint())
		u.Edge.Dst = graph.VertexID(r.Uvarint())
		u.Edge.Type = graph.EdgeType(r.Uvarint())
		u.Edge.Ts = graph.Timestamp(r.Varint())
		u.Edge.Weight = r.Float32()
	default:
		if r.Err() == nil {
			return u, fmt.Errorf("codec: unknown update kind %d", u.Kind)
		}
	}
	return u, r.Err()
}

// DecodeUpdate decodes an update from a complete buffer.
func DecodeUpdate(buf []byte) (graph.Update, error) {
	r := NewReader(buf)
	u, err := ReadUpdate(r)
	if err != nil {
		return u, err
	}
	return u, r.Finish()
}
