package mq

import (
	"slices"
	"sort"
)

// A chunk holds up to chunkRecords records. Its arena is chunkRecords
// times the previous chunk's value bytes per record, plus a 32nd, within
// [minArena, maxArena]; a value larger than that gets an arena, and a
// chunk, of its own. The headroom is what a steady stream wastes per record
// when the records fill a chunk first: an eighth would be 20 B on a 160 B
// value, as much as the columns.
const (
	chunkRecords = 1024
	minArena     = 4 << 10
	maxArena     = 1 << 20
)

// chunkLog is a partition's retained records, [head, next), held as chunks
// of pointer-free columns whose values sit back to back in one byte arena
// per chunk. The arena holds the only copy of a value, and bytes written
// to it are never rewritten: appends only extend it, a truncation seals the
// chunk it cuts, and retention drops whole chunks. So a fetched value is a
// view of the arena that stays intact for as long as anyone holds it.
type chunkLog struct {
	chunks []*chunk // contiguous: chunks[i+1].base == chunks[i].base + chunks[i].n
	head   int64    // offset of the first retained record
	next   int64    // offset of the next append
	// perRec is the value bytes per record of the last chunk the log moved
	// on from: what the next arena is sized from.
	perRec int
}

type chunk struct {
	arena  []byte
	keys   []uint64
	ts     []int64
	ends   []uint32 // value i is arena[ends[i-1]:ends[i]], from 0 for i == 0
	base   int64    // offset of record 0
	n      int
	sealed bool // takes no more records: cut by a truncation, or one value's own
}

func (c *chunk) record(i int) Record {
	s, e := uint32(0), c.ends[i]
	if i > 0 {
		s = c.ends[i-1]
	}
	return Record{Offset: c.base + int64(i), Key: c.keys[i], Ts: c.ts[i], Value: c.arena[s:e:e]}
}

// put appends one record at next, copying val into the tail chunk's arena.
func (l *chunkLog) put(key uint64, ts int64, val []byte) {
	var c *chunk
	if k := len(l.chunks); k > 0 {
		c = l.chunks[k-1]
	}
	if c == nil || c.sealed || c.n == len(c.keys) || len(c.arena)+len(val) > cap(c.arena) {
		c = l.grow(c, len(val))
	}
	c.arena = append(c.arena, val...)
	c.keys[c.n], c.ts[c.n], c.ends[c.n] = key, ts, uint32(len(c.arena))
	c.n++
	l.next++
}

// grow starts a chunk at next for a value of size bytes, after tail.
func (l *chunkLog) grow(tail *chunk, size int) *chunk {
	if tail != nil && tail.n > 0 && len(tail.keys) > 1 { // an own arena says nothing of the stream
		l.perRec = (len(tail.arena) + tail.n - 1) / tail.n
	}
	arena := min(max(l.perRec*chunkRecords*33/32, minArena), maxArena)
	c := &chunk{base: l.next}
	rows := chunkRecords
	if size > arena {
		arena, rows, c.sealed = size, 1, true
	}
	c.arena = make([]byte, 0, arena)
	c.keys, c.ts, c.ends = make([]uint64, rows), make([]int64, rows), make([]uint32, rows)
	l.chunks = append(l.chunks, c)
	return c
}

// find returns the index of the chunk holding offset off, or len(chunks)
// when off is at or past the log end.
func (l *chunkLog) find(off int64) int {
	return sort.Search(len(l.chunks), func(i int) bool {
		c := l.chunks[i]
		return c.base+int64(c.n) > off
	})
}

// at returns the record at off, which must lie in [head, next).
func (l *chunkLog) at(off int64) Record {
	c := l.chunks[l.find(off)]
	return c.record(int(off - c.base))
}

// read appends views of the records [off, end) to dst; the range must lie
// in [head, next).
func (l *chunkLog) read(dst []Record, off, end int64) []Record {
	dst = slices.Grow(dst, int(end-off))
	for i := l.find(off); off < end; i++ {
		c := l.chunks[i]
		for j := int(off - c.base); j < c.n && off < end; j++ {
			dst = append(dst, c.record(j))
			off++
		}
	}
	return dst
}

// cut truncates the log to end at off, in [head, next]. The chunk the cut
// lands in is sealed, so the arena bytes past it are never written again.
func (l *chunkLog) cut(off int64) {
	if i := l.find(off); i < len(l.chunks) {
		if c := l.chunks[i]; off > c.base {
			c.n, c.sealed = int(off-c.base), true
			i++
		}
		clear(l.chunks[i:])
		l.chunks = l.chunks[:i]
	}
	l.next = off
}

// advance moves head forward to off, at most next, dropping every chunk
// wholly below it.
func (l *chunkLog) advance(off int64) {
	l.head = off
	n := copy(l.chunks, l.chunks[l.find(off):])
	clear(l.chunks[n:])
	l.chunks = l.chunks[:n]
}
