// Package kvstore is the embedded key-value store backing Helios's
// query-aware sample cache and feature tables. It substitutes for RocksDB's
// hybrid memory-disk mode (§6): a sharded in-memory memtable absorbs writes;
// when a configured memory budget is exceeded the memtable flushes to
// sorted, bloom-filtered, sparsely-indexed runs on disk; reads check the
// memtable then runs newest-to-oldest; background-free compaction merges
// runs on demand.
//
// Durability model: flushed runs survive restart (Open replays them); the
// memtable does not. That matches how Helios uses the store — serving-worker
// caches are rebuilt from the durable broker queues and coordinator
// checkpoints, so the cache store itself only needs capacity spill, not a
// WAL.
package kvstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrClosed reports use after Close.
var ErrClosed = errors.New("kvstore: closed")

// Options configures a DB.
type Options struct {
	// Dir holds on-disk runs. Empty means memory-only: the memory budget is
	// ignored and the store never spills.
	Dir string
	// MemBudgetBytes triggers a flush when the memtable exceeds it.
	// Ignored when Dir is empty. 0 defaults to DefaultMemBudget.
	MemBudgetBytes int64
	// BloomBitsPerKey sizes per-run bloom filters; 0 defaults to 10.
	BloomBitsPerKey int
}

// shards is the memtable shard count.
const shards = 16

// DefaultMemBudget is the memory budget of a store opened with a zero
// MemBudgetBytes.
const DefaultMemBudget = 64 << 20

func (o *Options) fill() {
	if o.MemBudgetBytes == 0 {
		o.MemBudgetBytes = DefaultMemBudget
	}
	if o.BloomBitsPerKey == 0 {
		o.BloomBitsPerKey = 10
	}
}

// DB is the store. All methods are safe for concurrent use.
type DB struct {
	opts   Options
	shards []shard
	mem    atomic.Int64 // memtable bytes

	runMu  sync.RWMutex
	runs   []*run // newest first
	nextID int

	flushMu sync.Mutex // serializes flush/compact
	closed  atomic.Bool
}

type shard struct {
	mu sync.RWMutex
	m  map[string]entry
	// frozen is this shard's immutable memtable mid-flush: swapped out of m
	// but not yet durable in a run — the role RocksDB's immutable memtable
	// plays. It moves under mu together with m (freeze swaps both, a failed
	// flush merges it back), so a reader holding mu never sees an entry in
	// neither place.
	frozen map[string]entry
}

type entry struct {
	value     []byte
	tombstone bool
}

// entryOverhead approximates per-entry bookkeeping bytes for the memory
// budget (map bucket + string header + slice header).
const entryOverhead = 64

// Open creates or reopens a DB. With a Dir, existing runs are loaded
// (newest first by generation number).
func Open(opts Options) (*DB, error) {
	opts.fill()
	db := &DB{opts: opts, shards: make([]shard, shards)}
	for i := range db.shards {
		db.shards[i].m = make(map[string]entry)
	}
	if opts.Dir == "" {
		return db, nil
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("kvstore: %w", err)
	}
	names, err := filepath.Glob(filepath.Join(opts.Dir, "run-*.kv"))
	if err != nil {
		return nil, err
	}
	type gen struct {
		id   int
		path string
	}
	var gens []gen
	for _, path := range names {
		base := strings.TrimSuffix(filepath.Base(path), ".kv")
		id, err := strconv.Atoi(strings.TrimPrefix(base, "run-"))
		if err != nil {
			continue
		}
		gens = append(gens, gen{id: id, path: path})
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i].id > gens[j].id }) // newest first
	for _, g := range gens {
		r, err := openRun(g.path, opts.BloomBitsPerKey)
		if err != nil {
			return nil, fmt.Errorf("kvstore: open %s: %w", g.path, err)
		}
		db.runs = append(db.runs, r)
		if g.id >= db.nextID {
			db.nextID = g.id + 1
		}
	}
	return db, nil
}

func (db *DB) shardFor(key []byte) *shard {
	h1, _ := hashKey(key)
	return &db.shards[h1%uint64(len(db.shards))]
}

// Put stores key → value. The value is copied.
func (db *DB) Put(key, value []byte) error {
	if db.closed.Load() {
		return ErrClosed
	}
	s := db.shardFor(key)
	v := make([]byte, len(value))
	copy(v, value)
	k := string(key)
	s.mu.Lock()
	old, existed := s.m[k]
	s.m[k] = entry{value: v}
	s.mu.Unlock()
	delta := int64(len(k) + len(v) + entryOverhead)
	if existed {
		delta -= int64(len(k) + len(old.value) + entryOverhead)
	}
	if db.mem.Add(delta) > db.opts.MemBudgetBytes && db.opts.Dir != "" {
		return db.Flush()
	}
	return nil
}

// Delete removes key. With a Dir a tombstone shadows older versions in the
// runs until compaction; a memory-only store has no runs to shadow, so the
// entry simply goes (Flush and Compact never run there to drop a tombstone).
func (db *DB) Delete(key []byte) error {
	if db.closed.Load() {
		return ErrClosed
	}
	s := db.shardFor(key)
	k := string(key)
	var delta int64
	s.mu.Lock()
	old, existed := s.m[k]
	if db.opts.Dir == "" {
		delete(s.m, k)
	} else {
		s.m[k] = entry{tombstone: true}
		delta = int64(len(k) + entryOverhead)
	}
	s.mu.Unlock()
	if existed {
		delta -= int64(len(k) + len(old.value) + entryOverhead)
	}
	db.mem.Add(delta)
	return nil
}

// Get returns the value for key. ok is false for absent or deleted keys.
// The returned slice is private to the caller.
func (db *DB) Get(key []byte) (value []byte, ok bool, err error) {
	if db.closed.Load() {
		return nil, false, ErrClosed
	}
	s := db.shardFor(key)
	s.mu.RLock()
	e, hit := s.m[string(key)]
	if !hit {
		e, hit = s.frozen[string(key)]
	}
	s.mu.RUnlock()
	if hit {
		if e.tombstone {
			return nil, false, nil
		}
		out := make([]byte, len(e.value))
		copy(out, e.value)
		return out, true, nil
	}
	// A miss above cannot be an entry in flight to a run: Flush publishes
	// the run before it clears any shard's frozen map.
	db.runMu.RLock()
	runs := db.runs
	db.runMu.RUnlock()
	for _, r := range runs {
		v, tomb, found, err := r.get(key)
		if err != nil {
			return nil, false, err
		}
		if found {
			if tomb {
				return nil, false, nil
			}
			return v, true, nil
		}
	}
	return nil, false, nil
}

// Has reports key presence without copying the value.
func (db *DB) Has(key []byte) (bool, error) {
	_, ok, err := db.Get(key)
	return ok, err
}

// MemBytes returns the approximate memtable size.
func (db *DB) MemBytes() int64 { return db.mem.Load() }

// DiskBytes returns the total size of on-disk runs.
func (db *DB) DiskBytes() int64 {
	db.runMu.RLock()
	defer db.runMu.RUnlock()
	var total int64
	for _, r := range db.runs {
		total += r.size
	}
	return total
}

// ApproxBytes returns memory plus disk footprint — the quantity Fig. 16
// reports as cache size per serving node.
func (db *DB) ApproxBytes() int64 { return db.MemBytes() + db.DiskBytes() }

// NumRuns reports the number of on-disk runs (for tests and compaction
// policy).
func (db *DB) NumRuns() int {
	db.runMu.RLock()
	defer db.runMu.RUnlock()
	return len(db.runs)
}

// Flush writes the memtable to a new run. No-op for memory-only stores or
// empty memtables.
func (db *DB) Flush() error {
	if db.opts.Dir == "" {
		return nil
	}
	db.flushMu.Lock()
	defer db.flushMu.Unlock()
	if db.closed.Load() {
		return ErrClosed
	}

	// Freeze: swap each shard's map into its frozen slot so entries stay
	// readable while the run is written. Writes arriving afterwards land in
	// the fresh shard maps, which shadow the frozen ones on reads.
	var drained int64
	var kvs []flushEntry
	for i := range db.shards {
		s := &db.shards[i]
		s.mu.Lock()
		if len(s.m) > 0 {
			s.frozen, s.m = s.m, make(map[string]entry)
			for k, e := range s.frozen {
				kvs = append(kvs, flushEntry{key: k, entry: e})
				drained += int64(len(k) + len(e.value) + entryOverhead)
			}
		}
		s.mu.Unlock()
	}
	if len(kvs) == 0 {
		return nil
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].key < kvs[j].key })

	db.runMu.Lock()
	id := db.nextID
	db.nextID++
	db.runMu.Unlock()
	path := filepath.Join(db.opts.Dir, fmt.Sprintf("run-%08d.kv", id))
	r, err := writeRun(path, kvs, db.opts.BloomBitsPerKey)
	if err != nil {
		// Thaw: merge the frozen entries back so nothing is lost; entries
		// written meanwhile win.
		for i := range db.shards {
			s := &db.shards[i]
			s.mu.Lock()
			for k, e := range s.frozen {
				if _, exists := s.m[k]; !exists {
					s.m[k] = e
					drained -= int64(len(k) + len(e.value) + entryOverhead)
				}
			}
			s.frozen = nil
			s.mu.Unlock()
		}
		db.mem.Add(-drained)
		return err
	}
	db.runMu.Lock()
	db.runs = append([]*run{r}, db.runs...)
	db.runMu.Unlock()
	for i := range db.shards {
		s := &db.shards[i]
		s.mu.Lock()
		s.frozen = nil
		s.mu.Unlock()
	}
	db.mem.Add(-drained)
	return nil
}

// Compact merges all runs into one, dropping shadowed versions and
// tombstones. The memtable is flushed first so the result is a single
// authoritative run.
func (db *DB) Compact() error {
	if db.opts.Dir == "" {
		return nil
	}
	if err := db.Flush(); err != nil {
		return err
	}
	db.flushMu.Lock()
	defer db.flushMu.Unlock()
	db.runMu.RLock()
	old := append([]*run(nil), db.runs...)
	db.runMu.RUnlock()
	if len(old) <= 1 {
		return nil
	}
	merged, err := mergeRuns(old)
	if err != nil {
		return err
	}
	db.runMu.Lock()
	id := db.nextID
	db.nextID++
	db.runMu.Unlock()
	path := filepath.Join(db.opts.Dir, fmt.Sprintf("run-%08d.kv", id))
	r, err := writeRun(path, merged, db.opts.BloomBitsPerKey)
	if err != nil {
		return err
	}
	db.runMu.Lock()
	db.runs = []*run{r}
	db.runMu.Unlock()
	for _, o := range old {
		o.remove()
	}
	return nil
}

// Range calls fn for every live key/value pair (memtable shadowing runs,
// newer runs shadowing older) until fn returns false. Order is unspecified.
// Values passed to fn are private copies.
func (db *DB) Range(fn func(key, value []byte) bool) error {
	if db.closed.Load() {
		return ErrClosed
	}
	seen := make(map[string]bool)
	var snap []flushEntry
	for i := range db.shards {
		s := &db.shards[i]
		s.mu.RLock()
		for _, m := range [2]map[string]entry{s.m, s.frozen} {
			for k, e := range m {
				v := make([]byte, len(e.value))
				copy(v, e.value)
				snap = append(snap, flushEntry{key: k, entry: entry{value: v, tombstone: e.tombstone}})
			}
		}
		s.mu.RUnlock()
	}
	for _, fe := range snap {
		if seen[fe.key] {
			continue // shard entry shadows its frozen twin
		}
		seen[fe.key] = true
		if fe.tombstone {
			continue
		}
		if !fn([]byte(fe.key), fe.value) {
			return nil
		}
	}
	db.runMu.RLock()
	runs := append([]*run(nil), db.runs...)
	db.runMu.RUnlock()
	for _, r := range runs {
		stop := false
		err := r.scan(func(k, v []byte, tomb bool) bool {
			if seen[string(k)] {
				return true
			}
			seen[string(k)] = true
			if tomb {
				return true
			}
			if !fn(k, v) {
				stop = true
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
		if stop {
			return nil
		}
	}
	return nil
}

// Len counts live keys by scanning; intended for tests and checkpoints.
func (db *DB) Len() (int, error) {
	n := 0
	err := db.Range(func(_, _ []byte) bool { n++; return true })
	return n, err
}

// Close releases file handles. The memtable is discarded (see the package
// durability note); call Flush first to persist it.
func (db *DB) Close() error {
	if db.closed.Swap(true) {
		return nil
	}
	db.runMu.Lock()
	defer db.runMu.Unlock()
	var firstErr error
	for _, r := range db.runs {
		if err := r.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	db.runs = nil
	return firstErr
}
