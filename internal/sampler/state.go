package sampler

import (
	"math/rand"

	"helios/internal/graph"
	"helios/internal/query"
	"helios/internal/sampling"
	"helios/internal/wire"
)

// shard is the state one sampling actor owns: the slice of every table
// (reservoirs, features, subscriptions) for the vertices hashing to that
// actor. Because one actor serializes all events for its vertices, the
// shard needs no locking.
type shard struct {
	rng *rand.Rand
	// reservoirs is the reservoir table of §4.2: one per one-hop query,
	// keyed by origin vertex.
	reservoirs map[query.HopID]map[graph.VertexID]*resEntry
	// features is the feature table: latest feature per owned vertex.
	features map[graph.VertexID]*featEntry
	// sampleSubs is the subscription table of §5.3: per one-hop query and
	// vertex, the serving workers subscribed with refcounts. Hop-1 entries
	// are implicit ({servingOwner(v)}) and never stored here.
	sampleSubs map[query.HopID]map[graph.VertexID]map[int32]int32
	// featSubs tracks feature subscriptions per vertex.
	featSubs map[graph.VertexID]map[int32]int32
}

type resEntry struct {
	res   *sampling.Reservoir
	touch int64
}

type featEntry struct {
	feat  []float32
	touch int64
}

func newShard(src rand.Source) *shard {
	return &shard{
		rng:        rand.New(src),
		reservoirs: make(map[query.HopID]map[graph.VertexID]*resEntry),
		features:   make(map[graph.VertexID]*featEntry),
		sampleSubs: make(map[query.HopID]map[graph.VertexID]map[int32]int32),
		featSubs:   make(map[graph.VertexID]map[int32]int32),
	}
}

// handleEvent is the sampling pool handler: the whole pre-sampling protocol
// lives here, executed single-threaded per shard.
func (w *Worker) handleEvent(worker int, ev event) {
	st := w.shards[worker]
	switch ev.kind {
	case evEdge, evVertex:
		// Graph updates are the sampler.refresh stage: the reservoir step
		// plus subscription fan-out one update costs. The update's trace ID
		// rides along as the exemplar. The start stamp is also the touch
		// time the step records: two clock reads per update, not three.
		start := w.cfg.Clock.Now()
		if ev.kind == evEdge {
			w.onEdge(st, ev, start.UnixNano())
		} else {
			w.onVertex(st, ev, start.UnixNano())
		}
		w.stRefresh.Observe(w.cfg.Clock.Now().Sub(start).Nanoseconds(), ev.update.Trace)
	case evSubDelta:
		w.onSubDelta(st, ev)
	case evFeatSubDelta:
		w.onFeatSubDelta(st, ev)
	case evSweep:
		w.onSweep(st, ev.cutoff)
	case evSnapshot:
		ev.snap <- w.snapshotShard(st)
	}
}

// subscribersOf returns the serving workers subscribed to (hop, v). Hop 1
// has the implicit subscriber servingOwner(v); deeper hops consult the
// subscription table. The returned map must not be mutated; hop-1 callers
// receive a shared singleton via the bool return instead.
func (w *Worker) subscribersOf(st *shard, h query.OneHop, v graph.VertexID) (imp int32, implicit bool, subs map[int32]int32) {
	if h.ID.Hop() == 0 {
		return int32(w.servPart.Of(v)), true, nil
	}
	return 0, false, st.sampleSubs[h.ID][v]
}

// onEdge runs the §5.2 event-driven reservoir step for every one-hop query
// this edge update feeds, then the §5.3 subscription maintenance for every
// admission.
func (w *Worker) onEdge(st *shard, ev event, now int64) {
	e := ev.update.Edge
	for _, h := range w.byEdge[e.Type] {
		if e.Origin(h.oneHop.Dir) != ev.origin {
			continue // this event is keyed on the other endpoint
		}
		target := e.Target(h.oneHop.Dir)
		hopRes := st.reservoirs[h.oneHop.ID]
		if hopRes == nil {
			hopRes = make(map[graph.VertexID]*resEntry)
			st.reservoirs[h.oneHop.ID] = hopRes
		}
		re := hopRes[ev.origin]
		if re == nil {
			re = &resEntry{res: sampling.NewReservoir(h.oneHop.Strategy, h.oneHop.Fanout)}
			hopRes[ev.origin] = re
			if h.oneHop.ID.Hop() == 0 {
				// A seed vertex just gained its first sample cell: its
				// serving owner implicitly needs its feature (§6: the
				// feature table holds "all the seed and sampled neighbor
				// vertices"). The feature lives on this same shard (same
				// key vertex), so the subscription is registered directly.
				w.applyFeatSubDelta(st, ev.origin, int32(w.servPart.Of(ev.origin)), 1, ev.update.Ingested, ev.update.Trace)
			}
		}
		re.touch = now
		w.edgesOffered.Inc()
		adm := re.res.Offer(target, e.Ts, e.Weight, st.rng)
		if !adm.Added {
			continue
		}
		w.admissions.Inc()
		if ev.update.Ingested > 0 {
			// Reservoir refresh staleness: how far behind event time this
			// worker's sample tables are running (§5 freshness).
			w.staleness.Set(now - ev.update.Ingested)
		}

		imp, implicit, subs := w.subscribersOf(st, h.oneHop, ev.origin)
		if implicit {
			w.afterAdmission(h, ev.origin, target, re, adm, imp, ev.update.Ingested, ev.update.Trace)
		} else {
			for sew, cnt := range subs {
				if cnt > 0 {
					w.afterAdmission(h, ev.origin, target, re, adm, sew, ev.update.Ingested, ev.update.Trace)
				}
			}
		}
	}
}

// afterAdmission pushes the refreshed snapshot to one subscriber and issues
// the child subscription deltas for the admitted and evicted neighbours.
func (w *Worker) afterAdmission(h hopInfo, v, admitted graph.VertexID, re *resEntry, adm sampling.Admission, sew int32, ingested int64, trace uint64) {
	w.pushSnapshot(h.oneHop.ID, v, re, sew, ingested, trace)
	w.childDeltas(h, admitted, sew, ingested, trace, adm)
}

// childDeltas sends ±1 deltas for the admitted/evicted neighbours' features
// and next-hop samples.
func (w *Worker) childDeltas(h hopInfo, admitted graph.VertexID, sew int32, ingested int64, trace uint64, adm sampling.Admission) {
	w.sendSubDelta(&wire.Message{Kind: wire.KindFeatSubDelta, Vertex: admitted, SEW: sew, Delta: 1, Ingested: ingested, Trace: trace})
	if h.next != nil {
		w.sendSubDelta(&wire.Message{Kind: wire.KindSubDelta, Hop: h.next.ID, Vertex: admitted, SEW: sew, Delta: 1, Ingested: ingested, Trace: trace})
	}
	if adm.HasEvicted {
		w.sendSubDelta(&wire.Message{Kind: wire.KindFeatSubDelta, Vertex: adm.Evicted.Neighbor, SEW: sew, Delta: -1, Ingested: ingested, Trace: trace})
		if h.next != nil {
			w.sendSubDelta(&wire.Message{Kind: wire.KindSubDelta, Hop: h.next.ID, Vertex: adm.Evicted.Neighbor, SEW: sew, Delta: -1, Ingested: ingested, Trace: trace})
		}
	}
}

// pushSnapshot sends the full reservoir contents of (hop, v) to sew.
// Snapshots are idempotent, so replays and reorderings converge (§6's
// eventual consistency).
func (w *Worker) pushSnapshot(hop query.HopID, v graph.VertexID, re *resEntry, sew int32, ingested int64, trace uint64) {
	items := re.res.Items()
	refs := make([]wire.SampleRef, len(items))
	for i, s := range items {
		refs[i] = wire.SampleRef{Neighbor: s.Neighbor, Ts: s.Ts, Weight: s.Weight}
	}
	w.snapshotsSent.Inc()
	w.sendToServer(sew, &wire.Message{
		Kind: wire.KindSampleUpsert, Hop: hop, Vertex: v, Samples: refs, Ingested: ingested, Trace: trace,
	})
}

// onVertex stores the latest feature and forwards it to subscribers.
func (w *Worker) onVertex(st *shard, ev event, now int64) {
	v := ev.update.Vertex
	fe := st.features[v.ID]
	if fe == nil {
		fe = &featEntry{}
		st.features[v.ID] = fe
	}
	fe.feat = append(fe.feat[:0], v.Feature...)
	fe.touch = now
	for sew, cnt := range st.featSubs[v.ID] {
		if cnt > 0 {
			w.pushFeature(v.ID, fe, sew, ev.update.Ingested, ev.update.Trace)
		}
	}
}

func (w *Worker) pushFeature(v graph.VertexID, fe *featEntry, sew int32, ingested int64, trace uint64) {
	feat := make([]float32, len(fe.feat))
	copy(feat, fe.feat)
	w.featuresSent.Inc()
	w.sendToServer(sew, &wire.Message{
		Kind: wire.KindFeatureUpdate, Vertex: v, Feature: feat, Ingested: ingested, Trace: trace,
	})
}

// onSubDelta applies a sample-subscription refcount change (§5.3, the
// Fig. 7 walk-through). A 0→1 transition materializes the subscriber's view
// of this vertex's subtree: push the current snapshot and recursively
// subscribe to the children. A 1→0 transition tears it down.
func (w *Worker) onSubDelta(st *shard, ev event) {
	h, ok := w.hops[ev.hop]
	if !ok || ev.hop.Hop() == 0 {
		return // unknown hop, or hop-1 whose subscription is implicit
	}
	vsubs := st.sampleSubs[ev.hop]
	if vsubs == nil {
		vsubs = make(map[graph.VertexID]map[int32]int32)
		st.sampleSubs[ev.hop] = vsubs
	}
	subs := vsubs[ev.origin]
	if subs == nil {
		subs = make(map[int32]int32)
		vsubs[ev.origin] = subs
	}
	prev := subs[ev.sew]
	next := prev + int32(ev.delta)
	if next < 0 {
		next = 0 // tolerate reordered teardown
	}
	subs[ev.sew] = next
	if next == 0 {
		delete(subs, ev.sew)
	}

	re := st.reservoirs[ev.hop][ev.origin]
	switch {
	case prev == 0 && next > 0:
		if re != nil {
			w.pushSnapshot(ev.hop, ev.origin, re, ev.sew, ev.ing, ev.trace)
			w.subscribeChildren(re, h, ev.sew, 1, ev.ing, ev.trace)
		}
	case prev > 0 && next == 0:
		w.sendToServer(ev.sew, &wire.Message{Kind: wire.KindSampleEvict, Hop: ev.hop, Vertex: ev.origin, Ingested: ev.ing, Trace: ev.trace})
		if re != nil {
			w.subscribeChildren(re, h, ev.sew, -1, ev.ing, ev.trace)
		}
	}
}

// subscribeChildren issues ±1 deltas for every current sample of re.
func (w *Worker) subscribeChildren(re *resEntry, h hopInfo, sew int32, delta int8, ingested int64, trace uint64) {
	for _, s := range re.res.Items() {
		w.sendSubDelta(&wire.Message{Kind: wire.KindFeatSubDelta, Vertex: s.Neighbor, SEW: sew, Delta: delta, Ingested: ingested, Trace: trace})
		if h.next != nil {
			w.sendSubDelta(&wire.Message{Kind: wire.KindSubDelta, Hop: h.next.ID, Vertex: s.Neighbor, SEW: sew, Delta: delta, Ingested: ingested, Trace: trace})
		}
	}
}

// onFeatSubDelta applies a feature-subscription refcount change.
func (w *Worker) onFeatSubDelta(st *shard, ev event) {
	w.applyFeatSubDelta(st, ev.origin, ev.sew, ev.delta, ev.ing, ev.trace)
}

func (w *Worker) applyFeatSubDelta(st *shard, v graph.VertexID, sew int32, delta int8, ingested int64, trace uint64) {
	subs := st.featSubs[v]
	if subs == nil {
		subs = make(map[int32]int32)
		st.featSubs[v] = subs
	}
	prev := subs[sew]
	next := prev + int32(delta)
	if next < 0 {
		next = 0
	}
	subs[sew] = next
	if next == 0 {
		delete(subs, sew)
		if len(subs) == 0 {
			delete(st.featSubs, v)
		}
	}
	switch {
	case prev == 0 && next > 0:
		if fe := st.features[v]; fe != nil {
			w.pushFeature(v, fe, sew, ingested, trace)
		}
	case prev > 0 && next == 0:
		w.sendToServer(sew, &wire.Message{Kind: wire.KindFeatureEvict, Vertex: v, Ingested: ingested, Trace: trace})
	}
}

// onSweep applies the TTL policy (§4.2): reservoirs and features untouched
// since the cutoff are dropped, with eviction tombstones pushed to their
// subscribers so serving caches shed the same entries.
func (w *Worker) onSweep(st *shard, cutoff int64) {
	for hid, hopRes := range st.reservoirs {
		h := w.hops[hid]
		for v, re := range hopRes {
			if re.touch >= cutoff {
				continue
			}
			imp, implicit, subs := w.subscribersOf(st, h.oneHop, v)
			if implicit {
				w.sendToServer(imp, &wire.Message{Kind: wire.KindSampleEvict, Hop: hid, Vertex: v})
				w.subscribeChildren(re, h, imp, -1, 0, 0)
				w.applyFeatSubDelta(st, v, imp, -1, 0, 0) // the seed's, taken in onEdge
			} else {
				for sew, cnt := range subs {
					if cnt > 0 {
						w.sendToServer(sew, &wire.Message{Kind: wire.KindSampleEvict, Hop: hid, Vertex: v})
						w.subscribeChildren(re, h, sew, -1, 0, 0)
					}
				}
			}
			delete(hopRes, v)
			w.expired.Inc()
		}
	}
	for v, fe := range st.features {
		if fe.touch >= cutoff {
			continue
		}
		for sew, cnt := range st.featSubs[v] {
			if cnt > 0 {
				w.sendToServer(sew, &wire.Message{Kind: wire.KindFeatureEvict, Vertex: v})
			}
		}
		delete(st.features, v)
		w.expired.Inc()
	}
}
