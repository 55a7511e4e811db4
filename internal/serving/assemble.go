package serving

import (
	"sync"

	"helios/internal/codec"
	"helios/internal/faultpoint"
	"helios/internal/graph"
	"helios/internal/obs"
	"helios/internal/query"
	"helios/internal/rpc"
)

// assembly is one K-hop answer under construction in Encoded's layout, and
// the pooled scratch that makes a steady-state assembly allocation-free.
// body keeps its first headerRoom bytes for the header, which finish writes
// last, in place. hits are the sample cells found, in hop order; their
// samples, in order, are the layers after the seed.
type assembly struct {
	body, hdr codec.Writer
	hits      []sampleHit
	seen      map[graph.VertexID]struct{}
	feats     []featureHit
	spans     []obs.Span

	lookups, sampleMisses, featureMisses, edges int
}

type sampleHit struct {
	hop    int
	parent graph.VertexID
	cell   *sampleCell
}

type featureHit struct {
	v    graph.VertexID
	cell *featureCell
}

// headerRoom bounds the header: four ten-byte numbers, the degraded byte, a
// span count and three serving spans of at most 1+21+10 bytes — 138.
const headerRoom = 160

var headerPad [headerRoom]byte

var assemblies = sync.Pool{New: func() any {
	return &assembly{seen: make(map[graph.VertexID]struct{})}
}}

func getAssembly() *assembly {
	a := assemblies.Get().(*assembly)
	a.reset()
	return a
}

func (a *assembly) reset() {
	a.body.Reset()
	a.body.Raw(headerPad[:])
	a.hits, a.feats, a.spans = a.hits[:0], a.feats[:0], a.spans[:0]
	clear(a.seen)
	a.lookups, a.sampleMisses, a.featureMisses, a.edges = 0, 0, 0, 0
}

// release pools a, dropping its pointers into the cache so it pins no
// replaced cell, unless it grew past 1 MiB (as codec.PutWriter).
func (a *assembly) release() {
	if a.body.Len() <= 1<<20 {
		clear(a.hits)
		clear(a.feats)
		assemblies.Put(a)
	}
}

// assemble is the one K-hop assembler (§6) behind every serve path: Π C_i
// sample-cell lookups and a feature lookup per distinct vertex, whatever
// the seed's degree, appended straight into a's body — no Result on the
// way. deadline (worker-clock ns, 0 = none) is checked between hops. The
// K-hop and feature spans are appended to a.spans; finish adds the header.
//
//lint:hotpath
func (w *Worker) assemble(a *assembly, qid query.ID, seed graph.VertexID, deadline int64, trace uint64) error {
	plan, ok := w.plans[qid]
	if !ok {
		return unknownQuery(qid)
	}
	start := w.cfg.Clock.Now()
	// Burst drills arm a delay here (scripts/burst-smoke.sh), after the
	// timer starts, so the spike it causes lands in serving.khop_assembly.
	if err := faultpoint.Inject("serving.sample"); err != nil {
		return err
	}
	c, b := w.cache, &a.body
	b.Uvarint(uint64(len(plan.OneHops) + 1))
	b.Uvarint(1)
	b.Uvarint(uint64(seed))
	lo := 0 // a.hits[lo:hi] are the previous hop's: this hop's frontier
	for hop := range plan.OneHops {
		hid, hi, edges := plan.OneHops[hop].ID, len(a.hits), a.edges
		if hop == 0 {
			a.visit(c, hop, hid, seed)
		}
		for _, h := range a.hits[lo:hi] {
			for _, s := range h.cell.refs {
				a.visit(c, hop, hid, s.Neighbor)
			}
		}
		b.Uvarint(uint64(a.edges - edges)) // the next layer: this hop's samples
		for _, h := range a.hits[hi:] {
			for _, s := range h.cell.refs {
				b.Uvarint(uint64(s.Neighbor))
			}
		}
		lo = hi
		if deadline > 0 && w.cfg.Clock.Now().UnixNano() >= deadline {
			w.deadlineExp.Inc()
			return rpc.ErrDeadlineExceeded
		}
	}
	b.Uvarint(uint64(a.edges))
	for _, h := range a.hits {
		for _, s := range h.cell.refs {
			b.Uvarint(uint64(h.hop))
			b.Uvarint(uint64(h.parent))
			b.Uvarint(uint64(s.Neighbor))
			b.Varint(int64(s.Ts))
			b.Float32(s.Weight)
		}
	}
	assembled := w.cfg.Clock.Now()

	a.fetch(c, seed) // features in first-seen order
	for _, h := range a.hits {
		for _, s := range h.cell.refs {
			a.fetch(c, s.Neighbor)
		}
	}
	b.Uvarint(uint64(len(a.feats)))
	for _, f := range a.feats {
		b.Uvarint(uint64(f.v))
		b.Float32s(f.cell.vals)
	}
	done := w.cfg.Clock.Now()

	khop, feat := assembled.Sub(start).Nanoseconds(), done.Sub(assembled).Nanoseconds()
	a.spans = append(a.spans, obs.Span{Name: obs.StageServingKHop, Dur: khop}, obs.Span{Name: obs.StageServingFeature, Dur: feat})
	w.stKHop.Observe(khop, trace)
	w.stFeature.Observe(feat, trace)
	w.sampleHits.Add(int64(len(a.hits))) // one add per counter per query
	w.sampleMisses.Add(int64(a.sampleMisses))
	w.featureHits.Add(int64(len(a.feats)))
	w.featureMisses.Add(int64(a.featureMisses))
	w.served.Inc()
	w.queryLat.Observe(done.Sub(start).Nanoseconds(), 0)
	return nil
}

//lint:hotpath
func (a *assembly) visit(c *cache, hop int, hid query.HopID, v graph.VertexID) {
	a.lookups++
	if cell := c.samples(hid, v); cell != nil {
		a.hits = append(a.hits, sampleHit{hop: hop, parent: v, cell: cell})
		a.edges += len(cell.refs)
	} else {
		a.sampleMisses++
	}
}

//lint:hotpath
func (a *assembly) fetch(c *cache, v graph.VertexID) {
	if _, dup := a.seen[v]; dup {
		return
	}
	a.seen[v] = struct{}{}
	if cell := c.feature(v); cell != nil {
		a.feats = append(a.feats, featureHit{v: v, cell: cell})
	} else {
		a.featureMisses++
	}
}

// finish writes the header — counters, degraded mark, a.spans — in front of
// the body and returns the answer, which aliases a.
//
//lint:hotpath
func (a *assembly) finish(degraded bool, stalenessNS int64) Encoded {
	a.hdr.Reset()
	appendHeader(&a.hdr, a.sampleMisses, a.featureMisses, a.lookups, degraded, stalenessNS, a.spans)
	at := headerRoom - a.hdr.Len()
	if at < 0 { // not with the serving spans; stay correct regardless
		a.hdr.Raw(a.body.Bytes()[headerRoom:])
		return a.hdr.Bytes()
	}
	copy(a.body.Bytes()[at:], a.hdr.Bytes())
	return a.body.Bytes()[at:]
}
