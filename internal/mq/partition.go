package mq

import (
	"bytes"
	"sync"
	"time"

	"helios/internal/faultpoint"
)

// partition is one append-only, strictly ordered log. Records are held in a
// ring-ish slice window [head, next); retention truncates from the front.
type partition struct {
	mu     sync.Mutex
	cond   *sync.Cond
	topic  string
	idx    int
	broker *Broker

	records []Record // records[i] has offset head+i
	head    int64    // offset of records[0]
	next    int64    // offset of the next append
	// committed is the highest offset a consumer has reported back via
	// Commit (Kafka convention: one past the last processed record), or -1
	// while no consumer has ever committed. Broker-side lag — the basis for
	// ingestion backpressure — is next - committed.
	committed int64
	// hw is the high watermark: consumers only see offsets below it. -1
	// (the unreplicated default) disables the gate entirely; on a
	// replicated broker it tracks the highest offset known to be held by a
	// replication quorum, so a failover can never un-deliver a record a
	// consumer already fetched.
	hw     int64
	closed bool

	seg *segment // nil when memory-only
}

func newPartition(b *Broker, topic string, idx int) *partition {
	p := &partition{topic: topic, idx: idx, broker: b, committed: -1, hw: -1}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *partition) append(key uint64, value []byte) (int64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, ErrClosed
	}
	rec := Record{Offset: p.next, Key: key, Value: value, Ts: time.Now().UnixNano()}
	// Durability before visibility: the segment write — and, under
	// FsyncAlways, the fsync — must succeed before the record enters the
	// in-memory window, so a torn write can never surface an offset to
	// consumers that a restart would lose.
	if p.seg != nil {
		if err := p.seg.append(rec); err != nil {
			return 0, err
		}
		if p.broker.opts.Fsync == FsyncAlways {
			if err := p.seg.sync(); err != nil {
				return 0, err
			}
		}
	}
	p.records = append(p.records, rec)
	p.next++
	p.trimLocked()
	p.cond.Broadcast()
	return rec.Offset, nil
}

// appendBatch lands recs contiguously under one lock pass: one timestamp,
// one fsync (under FsyncAlways), one retention trim, one broadcast for the
// whole batch. Like append, segment bytes land before the records become
// visible; a mid-batch write failure leaves the in-memory log untouched
// (the orphaned segment prefix is reconciled by replay's rewind handling).
func (p *partition) appendBatch(recs []BatchRecord) (int64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, ErrClosed
	}
	first := p.next
	now := time.Now().UnixNano()
	if p.seg != nil {
		off := first
		for _, br := range recs {
			if err := p.seg.append(Record{Offset: off, Key: br.Key, Value: br.Value, Ts: now}); err != nil {
				return 0, err
			}
			off++
		}
		if p.broker.opts.Fsync == FsyncAlways {
			if err := p.seg.sync(); err != nil {
				return 0, err
			}
		}
	}
	for _, br := range recs {
		p.records = append(p.records, Record{Offset: p.next, Key: br.Key, Value: br.Value, Ts: now})
		p.next++
	}
	p.trimLocked()
	p.cond.Broadcast()
	return first, nil
}

// appendAt applies a leader's replicate frame: records carrying explicit
// offsets, contiguous from first. Offsets already present are verified
// against the frame — a matching record is skipped (frames race and
// overlap; re-application is idempotent), while a mismatch means this
// replica's log diverged from the leader's (a revived ex-leader whose
// un-acked tail survived, e.g. restart-pinned under its own high
// watermark): the log truncates to the divergence point and takes the
// leader's records, mirroring Kafka's leader-epoch truncation. A frame
// starting past the log end applies nothing — the returned next (< first)
// tells the leader where to resend from. Returns the new log end and how
// many records were actually applied.
func (p *partition) appendAt(first int64, recs []Record) (int64, int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, 0, ErrClosed
	}
	if first > p.next {
		return p.next, 0, nil
	}
	applied := 0
	for _, rec := range recs {
		if rec.Offset < p.head {
			continue // trimmed past: nothing retained to verify against
		}
		if rec.Offset < p.next {
			have := &p.records[int(rec.Offset-p.head)]
			if have.Key == rec.Key && have.Ts == rec.Ts && bytes.Equal(have.Value, rec.Value) {
				continue
			}
			// Divergence: everything from this offset on is the abandoned
			// tail of a dead leadership — never quorum-acked under the
			// current one. Drop it (clamping a restart-inflated high
			// watermark with it) and append the authoritative records; the
			// rewound segment frames are reconciled by replay's rewind
			// handling, same as a demotion's.
			p.records = p.records[:int(rec.Offset-p.head)]
			p.next = rec.Offset
			if p.hw > p.next {
				p.hw = p.next
			}
		}
		if p.seg != nil {
			if err := p.seg.append(rec); err != nil {
				return p.next, applied, err
			}
		}
		p.records = append(p.records, rec)
		p.next++
		applied++
	}
	if applied > 0 && p.seg != nil && p.broker.opts.Fsync == FsyncAlways {
		if err := p.seg.sync(); err != nil {
			return p.next, applied, err
		}
	}
	if applied > 0 {
		p.trimLocked()
		p.cond.Broadcast()
	}
	return p.next, applied, nil
}

// trimLocked applies the retention bound. Caller holds p.mu.
func (p *partition) trimLocked() {
	if retain := p.broker.opts.RetainRecords; retain > 0 && len(p.records) > 2*retain {
		// Amortized trim: let the window grow to 2× the retention bound,
		// then copy the newest `retain` records into a fresh slice (so the
		// old backing array stops pinning dropped payloads). This keeps
		// append O(1) amortized instead of O(retain) per append.
		drop := len(p.records) - retain
		kept := make([]Record, retain)
		copy(kept, p.records[drop:])
		p.records = kept
		p.head += int64(drop)
	}
}

// readRange returns the retained records in [from, to) for replication
// catch-up. The second result is false when `from` has been trimmed past —
// the follower is too far behind the retained window to heal by resend.
// The returned slice aliases immutable records and is read-only.
func (p *partition) readRange(from, to int64) ([]Record, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if from < p.head {
		return nil, false
	}
	if to > p.next {
		to = p.next
	}
	if from >= to {
		return nil, true
	}
	start := int(from - p.head)
	end := int(to - p.head)
	return p.records[start:end:end], true
}

// reportOffset is the offset this replica advertises in its
// replication-status report to the coordinator. A partition the broker
// believes it leads advertises the high watermark — the quorum-acked
// position — not the raw log end: the un-acked tail above hw is abandoned
// on demotion, so counting it would let a revived ex-leader look more
// caught-up in a later failover than a follower that actually holds every
// acked record. A followed partition advertises the log end, which on a
// follower is exactly its replication progress.
func (p *partition) reportOffset(leading bool) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if leading && p.hw >= 0 && p.hw < p.next {
		return p.hw
	}
	return p.next
}

// advanceHW raises the high watermark after a quorum ack, waking blocked
// fetches. No-op on an unreplicated partition (hw == -1).
func (p *partition) advanceHW(hw int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.hw < 0 || hw <= p.hw {
		return
	}
	if hw > p.next {
		hw = p.next
	}
	p.hw = hw
	p.cond.Broadcast()
}

// promote exposes the whole log: promotion only ever targets the
// most-caught-up live replica, which by the quorum rule holds every record
// any producer was ever acked.
func (p *partition) promote() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.hw < 0 {
		return
	}
	p.hw = p.next
	p.cond.Broadcast()
}

// demote abandons the unreplicated tail above the high watermark when
// leadership moves away: those records were never quorum-acked to any
// producer, and the new leader's stream will overwrite the offsets (the
// duplicate frames left in the segment are reconciled by replay's rewind
// handling on restart).
func (p *partition) demote() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.hw < 0 || p.hw >= p.next {
		return
	}
	cut := p.hw
	if cut < p.head {
		cut = p.head
	}
	p.records = p.records[:int(cut-p.head)]
	p.next = cut
}

// fetch returns up to max records starting at offset, blocking up to wait
// for data. A fetch below the retained head snaps forward to the head; on
// a replicated broker delivery stops at the high watermark. The returned
// records alias the partition's retained window and must be treated as
// read-only.
func (p *partition) fetch(offset int64, max int, wait time.Duration) ([]Record, int64, error) {
	if err := faultpoint.Inject("mq.fetch"); err != nil {
		return nil, offset, err
	}
	if max <= 0 {
		max = 1
	}
	deadline := time.Now().Add(wait)
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if offset < p.head {
			offset = p.head
		}
		limit := p.next
		if p.hw >= 0 && p.hw < limit {
			limit = p.hw
		}
		if offset < limit {
			start := int(offset - p.head)
			end := start + max
			if lim := int(limit - p.head); end > lim {
				end = lim
			}
			out := p.records[start:end:end]
			return out, offset + int64(len(out)), nil
		}
		if p.closed {
			return nil, offset, ErrClosed
		}
		if wait <= 0 {
			return nil, offset, nil
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, offset, nil
		}
		// cond has no timed wait; poke waiters periodically from a timer.
		t := time.AfterFunc(remaining, func() {
			p.mu.Lock()
			p.cond.Broadcast()
			p.mu.Unlock()
		})
		p.cond.Wait()
		t.Stop()
	}
}

func (p *partition) close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	p.cond.Broadcast()
	if p.seg != nil {
		return p.seg.close()
	}
	return nil
}
