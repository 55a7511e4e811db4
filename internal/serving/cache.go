package serving

import (
	"bytes"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"helios/internal/codec"
	"helios/internal/graph"
	"helios/internal/kvstore"
	"helios/internal/query"
	"helios/internal/wire"
)

// The query-aware sample cache (§6): typed cells in 16 shards chosen by
// vertex hash, each shard holding a map of sample cells keyed by (hop,
// vertex) and one of feature cells keyed by vertex behind one RWMutex.
// A cell is immutable once published and has one writer: the update pool
// keys every message by its vertex. An apply takes ownership of the slices
// wire.Decode allocated and swaps the cell pointer under the write lock; a
// reader holds the read lock for the map lookup only. The TTL sweeper judges
// staleness under the read lock and deletes, under the write lock, only a
// cell that is still the one it judged.
//
// With a Store.Dir, internal/kvstore is a spill tier behind the typed one:
// the typed tier holds about Store.MemBudgetBytes, a cell that does not fit
// goes to the store in the snapshot's value form, and lookups fall through
// to it once it holds anything. A memory-only worker opens no store.
type cache struct {
	shards         [16]cacheShard
	entries, bytes atomic.Int64 // the typed tier's cells and footprint
	spill          *kvstore.DB
	budget         int64
	spilled        atomic.Bool // the spill tier may hold a cell
}

type cacheShard struct {
	mu       sync.RWMutex
	samples  map[cellKey]*sampleCell
	features map[graph.VertexID]*featureCell
}

type cellKey struct {
	hop query.HopID
	v   graph.VertexID
}

type sampleCell struct {
	touch int64
	refs  []wire.SampleRef
}

type featureCell struct {
	touch int64
	vals  []float32
}

// cell is what the table operations need of either kind. size is the
// footprint CacheBytes and the budget count: the payload (a SampleRef is 24
// bytes) plus 64 for the cell header and its map slot.
type cell interface {
	*sampleCell | *featureCell
	size() int64
	stamp() int64
	value() []byte
}

func (c *sampleCell) size() int64   { return 64 + 24*int64(len(c.refs)) }
func (c *featureCell) size() int64  { return 64 + 4*int64(len(c.vals)) }
func (c *sampleCell) stamp() int64  { return c.touch }
func (c *featureCell) stamp() int64 { return c.touch }

func newCache(opts kvstore.Options) (*cache, error) {
	c := &cache{budget: opts.MemBudgetBytes}
	for i := range c.shards {
		c.shards[i].samples = make(map[cellKey]*sampleCell)
		c.shards[i].features = make(map[graph.VertexID]*featureCell)
	}
	if opts.Dir == "" {
		return c, nil
	}
	db, err := kvstore.Open(opts)
	if err != nil {
		return nil, err
	}
	c.spill = db
	if c.budget == 0 {
		c.budget = kvstore.DefaultMemBudget
	}
	c.spilled.Store(db.NumRuns() > 0)
	return c, nil
}

func (c *cache) shard(v graph.VertexID) *cacheShard {
	return &c.shards[(uint64(v)*0x9E3779B97F4A7C15)>>60]
}

func (c *cache) setSamples(k cellKey, next *sampleCell) error {
	sh := c.shard(k.v)
	return set(c, sh, sh.samples, k, next)
}

func (c *cache) setFeature(v graph.VertexID, next *featureCell) error {
	sh := c.shard(v)
	return set(c, sh, sh.features, v, next)
}

// set publishes next as k's cell (nil deletes it). The spill write or
// clean-up happens under the same write lock, so no reader sees k in
// neither tier or in both.
//
//lint:hotpath
func set[K comparable, C cell](c *cache, sh *cacheShard, m map[K]C, k K, next C) error {
	var none C
	sh.mu.Lock()
	old, had := m[k]
	var delta, n int64
	if had {
		delta, n = -old.size(), -1
	}
	typed := next != none && (c.spill == nil || c.bytes.Load()+delta+next.size() <= c.budget)
	if typed {
		m[k] = next
		delta, n = delta+next.size(), n+1
	} else if had {
		delete(m, k)
	}
	c.bytes.Add(delta)
	c.entries.Add(n)
	var err error
	if spill := next != none && !typed; spill || c.spilled.Load() {
		err = c.spillSet(spillKey(k), next, spill)
	}
	sh.mu.Unlock()
	return err
}

// spillSet puts next under key in the spill tier, or takes key out of it.
func (c *cache) spillSet(key []byte, next interface{ value() []byte }, put bool) error {
	if put {
		c.spilled.Store(true)
		return c.spill.Put(key, next.value())
	}
	if ok, err := c.spill.Has(key); !ok || err != nil {
		return err
	}
	return c.spill.Delete(key)
}

// samples looks a sample cell up; nil is a miss.
//
//lint:hotpath
func (c *cache) samples(hop query.HopID, v graph.VertexID) *sampleCell {
	sh := c.shard(v)
	sh.mu.RLock()
	cell := sh.samples[cellKey{hop, v}]
	if cell == nil && c.spilled.Load() {
		cell = spilled(c, sampleKey(hop, v), decodeSampleCell)
	}
	sh.mu.RUnlock()
	return cell
}

// feature looks a feature cell up; nil is a miss.
//
//lint:hotpath
func (c *cache) feature(v graph.VertexID) *featureCell {
	sh := c.shard(v)
	sh.mu.RLock()
	cell := sh.features[v]
	if cell == nil && c.spilled.Load() {
		cell = spilled(c, featureKey(v), decodeFeatureCell)
	}
	sh.mu.RUnlock()
	return cell
}

// spilled reads key's cell from the spill tier; a failure reads as a miss.
func spilled[C cell](c *cache, key []byte, decode func([]byte) (C, error)) C {
	var none C
	buf, ok, err := c.spill.Get(key)
	if err != nil || !ok {
		return none
	}
	cell, err := decode(buf)
	if err != nil {
		return none
	}
	return cell
}

// sweep deletes every cell untouched since cutoff.
func (c *cache) sweep(cutoff int64) error {
	for i := range c.shards {
		sh := &c.shards[i]
		sweepTable(c, sh, sh.samples, cutoff)
		sweepTable(c, sh, sh.features, cutoff)
	}
	if !c.spilled.Load() {
		return nil
	}
	var stale [][]byte
	err := c.spill.Range(func(k, v []byte) bool {
		if touch, ok := valueTouch(v); ok && touch < cutoff {
			stale = append(stale, bytes.Clone(k))
		}
		return true
	})
	for _, k := range stale {
		// Re-judged under the shard's write lock, which every write of k
		// holds.
		_, v, _, _ := parseKey(k)
		sh := c.shard(v)
		sh.mu.Lock()
		val, found, gerr := c.spill.Get(k)
		if touch, ok := valueTouch(val); gerr == nil && found && ok && touch < cutoff {
			gerr = c.spill.Delete(k)
		}
		sh.mu.Unlock()
		if err == nil {
			err = gerr
		}
	}
	return err
}

// sweepTable judges m's cells under the read lock, then deletes each stale
// one the map still holds: a refresh in between published a new cell.
func sweepTable[K comparable, C cell](c *cache, sh *cacheShard, m map[K]C, cutoff int64) {
	var keys []K
	var cells []C
	sh.mu.RLock()
	for k, cell := range m {
		if cell.stamp() < cutoff {
			keys, cells = append(keys, k), append(cells, cell)
		}
	}
	sh.mu.RUnlock()
	sh.mu.Lock()
	for i, k := range keys {
		if m[k] == cells[i] {
			delete(m, k)
			c.bytes.Add(-cells[i].size())
			c.entries.Add(-1)
		}
	}
	sh.mu.Unlock()
}

// footprint is what Fig. 16 reports: the typed cells plus the spill tier's
// memory and disk.
func (c *cache) footprint() int64 {
	if c.spill == nil {
		return c.bytes.Load()
	}
	return c.bytes.Load() + c.spill.ApproxBytes()
}

// len counts the cells of both tiers.
func (c *cache) len() (int, error) {
	if !c.spilled.Load() {
		return int(c.entries.Load()), nil
	}
	n, err := c.spill.Len()
	return n + int(c.entries.Load()), err
}

func (c *cache) close() {
	if c.spill != nil {
		c.spill.Close()
	}
}

// A key in the spill tier and in snapshots is a prefix byte, then
// big-endian fixed-width components, so keys of one table sort together.
const (
	prefixSample  = 's'
	prefixFeature = 'f'
)

func sampleKey(hop query.HopID, v graph.VertexID) []byte {
	k := make([]byte, 13)
	k[0] = prefixSample
	binary.BigEndian.PutUint32(k[1:], uint32(hop))
	binary.BigEndian.PutUint64(k[5:], uint64(v))
	return k
}

func featureKey(v graph.VertexID) []byte {
	k := make([]byte, 9)
	k[0] = prefixFeature
	binary.BigEndian.PutUint64(k[1:], uint64(v))
	return k
}

func spillKey[K comparable](k K) []byte {
	if k, ok := any(k).(cellKey); ok {
		return sampleKey(k.hop, k.v)
	}
	return featureKey(any(k).(graph.VertexID))
}

// parseKey splits a key into its table and cell; ok is false for a key of
// neither layout.
func parseKey(k []byte) (hop query.HopID, v graph.VertexID, sample, ok bool) {
	switch {
	case len(k) == 13 && k[0] == prefixSample:
		return query.HopID(binary.BigEndian.Uint32(k[1:])), graph.VertexID(binary.BigEndian.Uint64(k[5:])), true, true
	case len(k) == 9 && k[0] == prefixFeature:
		return 0, graph.VertexID(binary.BigEndian.Uint64(k[1:])), false, true
	}
	return 0, 0, false, false
}

// A value is the cell's touch stamp, then its payload.
func valueTouch(v []byte) (int64, bool) {
	r := codec.NewReader(v)
	touch := r.Varint()
	return touch, r.Err() == nil
}

func (c *sampleCell) value() []byte {
	cw := codec.NewWriter(16 + 16*len(c.refs))
	cw.Varint(c.touch)
	cw.Uvarint(uint64(len(c.refs)))
	for _, s := range c.refs {
		cw.Uvarint(uint64(s.Neighbor))
		cw.Varint(int64(s.Ts))
		cw.Float32(s.Weight)
	}
	return cw.Bytes()
}

func (c *featureCell) value() []byte {
	cw := codec.NewWriter(16 + 4*len(c.vals))
	cw.Varint(c.touch)
	cw.Float32s(c.vals)
	return cw.Bytes()
}

// The decoders use Finish, not Err: a value with trailing bytes is
// corrupt, not merely short, and must not decode as a valid cell.

func decodeSampleCell(buf []byte) (*sampleCell, error) {
	r := codec.NewReader(buf)
	c := &sampleCell{touch: r.Varint()}
	c.refs = make([]wire.SampleRef, r.Count(wire.MinSampleRef))
	for i := range c.refs {
		c.refs[i] = wire.SampleRef{Neighbor: graph.VertexID(r.Uvarint()), Ts: graph.Timestamp(r.Varint()), Weight: r.Float32()}
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return c, nil
}

func decodeFeatureCell(buf []byte) (*featureCell, error) {
	r := codec.NewReader(buf)
	c := &featureCell{touch: r.Varint(), vals: r.Float32s()}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return c, nil
}
