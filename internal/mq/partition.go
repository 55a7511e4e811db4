package mq

import (
	"bytes"
	"slices"
	"sync"
	"time"

	"helios/internal/faultpoint"
)

// partition is one append-only, strictly ordered log. Records are held in
// the chunked window [head, next); retention truncates from the front.
type partition struct {
	mu     sync.Mutex
	cond   *sync.Cond
	topic  string
	idx    int
	broker *Broker

	chunkLog
	// committed is the highest offset a consumer has reported back via
	// Commit (Kafka convention: one past the last processed record), or -1
	// while no consumer has ever committed. Broker-side lag — the basis for
	// ingestion backpressure — is next - committed.
	committed int64
	// hw is the high watermark: consumers only see offsets below it. -1
	// (the unreplicated default) disables the gate entirely. On a replicated
	// broker it is the offset below which this replica vouches for its log:
	// on a leader, the highest offset a replication quorum holds, so a
	// failover can never un-deliver a record a consumer already fetched; on
	// a follower, its position — the offset below which its log is known to
	// match the leader's, what it fetches from next, its ack.
	hw     int64
	closed bool
	// acks is, on a leader, what it knows of each follower.
	acks []peerAck

	seg *segment // nil when memory-only
}

// peerAck is what a leader knows of one follower since it took the lead:
// the offset its last replica fetch asked for, and when it last asked — or
// was last sent mq.open. The zero value is a follower not heard from.
type peerAck struct {
	next int64
	at   time.Time
}

func newPartition(b *Broker, topic string, idx int) *partition {
	p := &partition{topic: topic, idx: idx, broker: b, committed: -1, hw: -1}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// appendBatch lands recs contiguously under one lock pass: one timestamp,
// one fsync (under FsyncAlways), one retention trim, one broadcast for the
// whole batch. Durability before visibility: the segment write — and,
// under FsyncAlways, the fsync — must succeed before the records enter the
// in-memory window, so a torn write can never surface an offset to
// consumers that a restart would lose; a mid-batch write failure leaves the
// in-memory log untouched (the orphaned segment prefix is reconciled by
// replay's rewind handling).
func (p *partition) appendBatch(recs []BatchRecord) (int64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, ErrClosed
	}
	first := p.next
	now := time.Now().UnixNano()
	if p.seg != nil {
		for i, br := range recs {
			if err := p.seg.append(Record{Offset: first + int64(i), Key: br.Key, Value: br.Value, Ts: now}); err != nil {
				return 0, err
			}
		}
		if p.broker.opts.Fsync == FsyncAlways {
			if err := p.seg.sync(); err != nil {
				return 0, err
			}
		}
	}
	for _, br := range recs {
		p.put(br.Key, now, br.Value)
	}
	p.trimLocked()
	p.cond.Broadcast()
	return first, nil
}

// appendAt applies a batch a follower fetched from its leader: records
// carrying explicit offsets, contiguous from first. Offsets already present
// are verified against the batch — a matching record is skipped, while a
// mismatch means this replica's log diverged from the leader's (a revived
// ex-leader whose un-acked tail survived, e.g. restart-pinned under its own
// high watermark): the log truncates to the divergence point and takes the
// leader's records. A batch starting past the log end applies nothing, and
// the returned next (< first) says where the log ends. Returns the new log
// end and how many records were actually applied.
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
			have := p.at(rec.Offset)
			if have.Key == rec.Key && have.Ts == rec.Ts && bytes.Equal(have.Value, rec.Value) {
				continue
			}
			// Divergence: everything from this offset on is the abandoned
			// tail of a dead leadership — never quorum-acked under the
			// current one. Drop it (clamping a restart-inflated high
			// watermark with it) and append the authoritative records; the
			// rewound segment frames are reconciled by replay's rewind
			// handling, same as a demotion's.
			p.cut(rec.Offset)
			if p.hw > p.next {
				p.hw = p.next
			}
		}
		if p.seg != nil {
			if err := p.seg.append(rec); err != nil {
				return p.next, applied, err
			}
		}
		p.put(rec.Key, rec.Ts, rec.Value)
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
	if retain := int64(p.broker.opts.RetainRecords); retain > 0 && p.next-p.head > 2*retain {
		// Amortized trim: let the window grow to 2× the retention bound,
		// then keep the newest `retain` records and the chunks they touch.
		p.advance(p.next - retain)
	}
}

// seek sets a follower's position — its high watermark — to offset, or to
// the log head if that is later.
func (p *partition) seek(offset int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hw = max(offset, p.head)
}

func (p *partition) watermark() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hw
}

func (p *partition) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// ack records a replica fetch from peer as its ack — the offset it asked
// for, or the log end if that is lower — raises the high watermark to what
// a quorum now holds, and returns the ack.
func (p *partition) ack(peer int, next int64) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	next = min(next, p.next)
	if next > p.acks[peer].next {
		p.broker.FollowerAcks.Inc()
	}
	p.acks[peer] = peerAck{next: next, at: time.Now()}
	p.raiseHWLocked()
	return next
}

// raiseHWLocked raises the high watermark to the highest offset a quorum
// holds — this replica up to its log end, each follower up to its ack —
// and wakes whoever waits on it. Caller holds p.mu.
func (p *partition) raiseHWLocked() {
	cfg := p.broker.replicatorRef().cfg
	held := make([]int64, 0, 8)
	for i, a := range p.acks {
		held = append(held, a.next)
		if i == cfg.Self {
			held[i] = p.next
		}
	}
	slices.Sort(held)
	if hw := held[len(held)-cfg.Quorum]; hw > p.hw {
		p.hw = hw
		p.cond.Broadcast()
	}
}

// promote exposes the whole log: promotion only ever targets the
// most-caught-up live replica, which by the quorum rule holds every record
// any producer was ever acked. Acks count only toward the leadership they
// were made under, so promote and demote forget them.
func (p *partition) promote() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hw = p.next
	clear(p.acks)
	p.cond.Broadcast()
}

// demote abandons the unreplicated tail above the high watermark when
// leadership moves away: those records were never quorum-acked to any
// producer, and the new leader's records will overwrite the offsets (the
// duplicate frames left in the segment are reconciled by replay's rewind
// handling on restart). Appends waiting on a quorum wake to find the lead
// gone.
func (p *partition) demote() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if cut := max(p.hw, p.head); cut < p.next {
		p.cut(cut)
	}
	clear(p.acks)
	p.cond.Broadcast()
}

// fetch appends up to max records starting at offset to dst, blocking up
// to wait for data, and returns dst and the offset after the last record.
// A fetch below the retained head snaps forward to the head; on a
// replicated broker delivery stops at the high watermark, unless pastHW (a
// follower's fetch). The values are views of the log's arenas, each capped
// at its own length, and must be treated as read-only.
func (p *partition) fetch(dst []Record, offset int64, max int, wait time.Duration, pastHW bool) ([]Record, int64, error) {
	if err := faultpoint.Inject("mq.fetch"); err != nil {
		return dst, offset, err
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
		if !pastHW && p.hw >= 0 && p.hw < limit {
			limit = p.hw
		}
		if offset < limit {
			end := offset + min(limit-offset, int64(max))
			return p.read(dst, offset, end), end, nil
		}
		if p.closed {
			return dst, offset, ErrClosed
		}
		if wait <= 0 {
			return dst, offset, nil
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return dst, offset, nil
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
