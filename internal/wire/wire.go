// Package wire defines the messages Helios moves between its stages, with
// their binary encodings:
//
//   - Sample-queue messages (sampling worker → serving worker, §5.3):
//     reservoir snapshots, feature updates, and eviction tombstones that a
//     serving worker applies to its query-aware sample cache.
//   - Subscription deltas (sampling worker ↔ sampling worker, §5.3):
//     refcount changes that track which serving workers need which
//     vertices' samples and features.
//
// Every message carries the ingestion timestamp of the graph update that
// caused it, so serving workers can measure end-to-end ingestion latency
// (Fig. 17) at cache-apply time.
package wire

import (
	"errors"
	"fmt"

	"helios/internal/codec"
	"helios/internal/graph"
	"helios/internal/query"
)

// Kind discriminates message types on the queues.
type Kind uint8

const (
	// KindSampleUpsert replaces the cached reservoir snapshot of one
	// (one-hop query, vertex) pair.
	KindSampleUpsert Kind = iota + 1
	// KindSampleEvict removes a cached reservoir snapshot (its serving
	// worker unsubscribed).
	KindSampleEvict
	// KindFeatureUpdate replaces a cached vertex feature.
	KindFeatureUpdate
	// KindFeatureEvict removes a cached vertex feature.
	KindFeatureEvict
	// KindSubDelta adjusts a sample-subscription refcount (between
	// sampling workers).
	KindSubDelta
	// KindFeatSubDelta adjusts a feature-subscription refcount.
	KindFeatSubDelta
)

func (k Kind) String() string {
	switch k {
	case KindSampleUpsert:
		return "SampleUpsert"
	case KindSampleEvict:
		return "SampleEvict"
	case KindFeatureUpdate:
		return "FeatureUpdate"
	case KindFeatureEvict:
		return "FeatureEvict"
	case KindSubDelta:
		return "SubDelta"
	case KindFeatSubDelta:
		return "FeatSubDelta"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// SampleRef is one sampled neighbour inside a snapshot.
type SampleRef struct {
	Neighbor graph.VertexID
	Ts       graph.Timestamp
	Weight   float32
}

// MinSampleRef is the least one encoded SampleRef takes: neighbour and
// timestamp at a byte each, and the 4-byte weight. Readers size a snapshot
// with codec.Reader.Count(MinSampleRef).
const MinSampleRef = 6

// Message is the union of all queue messages; Kind selects the meaningful
// fields.
type Message struct {
	Kind Kind
	// Hop identifies the one-hop query for sample messages and sub deltas.
	Hop query.HopID
	// Vertex is the table key the message applies to.
	Vertex graph.VertexID
	// Samples is the full reservoir snapshot for KindSampleUpsert.
	Samples []SampleRef
	// Feature is the vertex feature for KindFeatureUpdate.
	Feature []float32
	// SEW is the serving worker a subscription delta refers to.
	SEW int32
	// Delta is +1 or -1 for subscription messages.
	Delta int8
	// Ingested propagates the causing update's ingestion nanosecond.
	Ingested int64
	// Trace propagates the causing update's trace ID (0 = untraced), so a
	// traced ingestion can be followed through sampling into the serving
	// worker's cache apply.
	Trace uint64
}

// Append encodes m into w.
//
//lint:hotpath
func Append(w *codec.Writer, m *Message) {
	w.Byte(byte(m.Kind))
	w.Uvarint(uint64(m.Hop))
	w.Uvarint(uint64(m.Vertex))
	w.Varint(m.Ingested)
	w.Uvarint(m.Trace)
	switch m.Kind {
	case KindSampleUpsert:
		w.Uvarint(uint64(len(m.Samples)))
		for _, s := range m.Samples {
			w.Uvarint(uint64(s.Neighbor))
			w.Varint(int64(s.Ts))
			w.Float32(s.Weight)
		}
	case KindFeatureUpdate:
		w.Float32s(m.Feature)
	case KindSubDelta, KindFeatSubDelta:
		w.Varint(int64(m.SEW))
		w.Varint(int64(m.Delta))
	}
}

// Encode serializes m to a fresh buffer. Encoding goes through a pooled
// writer so the (typically much larger) scratch array is reused across
// messages; only the exact-size result escapes.
func Encode(m *Message) []byte {
	w := codec.GetWriter()
	Append(w, m)
	out := make([]byte, w.Len())
	copy(out, w.Bytes())
	codec.PutWriter(w)
	return out
}

// Decode parses one message from buf.
func Decode(buf []byte) (Message, error) {
	r := codec.NewReader(buf)
	var m Message
	m.Kind = Kind(r.Byte())
	m.Hop = query.HopID(r.Uvarint())
	m.Vertex = graph.VertexID(r.Uvarint())
	m.Ingested = r.Varint()
	m.Trace = r.Uvarint()
	switch m.Kind {
	case KindSampleUpsert:
		if n := r.Count(MinSampleRef); n > 0 {
			m.Samples = make([]SampleRef, n)
			for i := range m.Samples {
				m.Samples[i].Neighbor = graph.VertexID(r.Uvarint())
				m.Samples[i].Ts = graph.Timestamp(r.Varint())
				m.Samples[i].Weight = r.Float32()
			}
		}
	case KindFeatureUpdate:
		m.Feature = r.Float32s()
	case KindSubDelta, KindFeatSubDelta:
		m.SEW = int32(r.Varint())
		m.Delta = int8(r.Varint())
	case KindSampleEvict, KindFeatureEvict:
		// header only
	default:
		if r.Err() == nil {
			return m, fmt.Errorf("wire: unknown kind %d", m.Kind)
		}
	}
	if err := r.Err(); err != nil {
		return m, err
	}
	return m, r.Finish()
}

// DecodeInto parses one message from buf into m, reusing m's Samples and
// Feature backing arrays. A consumer that keeps one Message across its
// poll loop decodes at zero steady-state allocations once the slices have
// grown to the working-set size (the runtime twin in wire_alloc_test.go
// holds this at exactly 0 allocs/op). Fields not present in the decoded
// kind are reset, so a reused Message never leaks state between records.
//
//lint:hotpath
func DecodeInto(buf []byte, m *Message) error {
	samples, feature := m.Samples[:0], m.Feature[:0]
	*m = Message{}
	var r codec.Reader
	r.Reset(buf)
	m.Kind = Kind(r.Byte())
	m.Hop = query.HopID(r.Uvarint())
	m.Vertex = graph.VertexID(r.Uvarint())
	m.Ingested = r.Varint()
	m.Trace = r.Uvarint()
	switch m.Kind {
	case KindSampleUpsert:
		if n := r.Count(MinSampleRef); n > 0 {
			for i := 0; i < n; i++ {
				samples = append(samples, SampleRef{
					Neighbor: graph.VertexID(r.Uvarint()),
					Ts:       graph.Timestamp(r.Varint()),
					Weight:   r.Float32(),
				})
			}
			m.Samples = samples
		}
	case KindFeatureUpdate:
		m.Feature = r.Float32sAppend(feature)
	case KindSubDelta, KindFeatSubDelta:
		m.SEW = int32(r.Varint())
		m.Delta = int8(r.Varint())
	case KindSampleEvict, KindFeatureEvict:
		// header only
	default:
		if r.Err() == nil {
			return errUnknownKind
		}
	}
	// Kinds that carry no slice hand the recycled backing arrays back as
	// length-zero slices, so a mixed-kind stream (upserts interleaved with
	// deltas and evictions) still decodes allocation-free.
	if m.Samples == nil {
		m.Samples = samples
	}
	if m.Feature == nil {
		m.Feature = feature
	}
	if err := r.Err(); err != nil {
		return err
	}
	return r.Finish()
}

// errUnknownKind is hoisted so DecodeInto stays allocation-free; the
// kind-specific detail Decode formats is recoverable from m.Kind.
var errUnknownKind = errors.New("wire: unknown message kind")

// Topic names shared by all deployments. Each deployment prefixes them with
// a namespace when several clusters share one broker.
const (
	// TopicUpdates carries graph updates, partitioned across sampling
	// workers by origin-vertex hash.
	TopicUpdates = "helios.updates"
	// TopicSamples carries cache messages, one partition per serving
	// worker.
	TopicSamples = "helios.samples"
	// TopicSubs carries subscription deltas, partitioned across sampling
	// workers by subject-vertex hash.
	TopicSubs = "helios.subs"
)
