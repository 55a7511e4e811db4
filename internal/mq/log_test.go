package mq

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"helios/internal/codec"
)

// TestLogBytesPerRecord is the retained log's ledger row: the heap a
// partition keeps per record beyond the value's own bytes, for a
// subs-shaped (20 B) and a samples-shaped (160 B) stream appended 64
// records a batch. Each value is a fresh allocation, as a producer's
// encoded message is. The columns are 12 B a record, a key and a value end;
// a sealed chunk's arena holds its values and nothing more.
func TestLogBytesPerRecord(t *testing.T) {
	const n, batch, ceiling = 100_000, 64, 16
	for _, size := range []int{20, 160} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		b := NewBroker(Options{})
		topic, err := b.CreateTopic("t", 1)
		if err != nil {
			t.Fatal(err)
		}
		recs := make([]BatchRecord, batch)
		for i := 0; i < n; i += batch {
			run := recs[:min(batch, n-i)]
			for j := range run {
				run[j] = BatchRecord{Key: uint64(i + j), Value: make([]byte, size)}
			}
			if _, err := topic.AppendBatch(0, run); err != nil {
				t.Fatal(err)
			}
		}
		clear(recs)
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(b)
		b.Close()
		over := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/n - float64(size)
		t.Logf("%d B values: %.1f B retained per record beyond the value", size, over)
		if over > ceiling {
			t.Errorf("%d B values: the log keeps value + %.1f B per record, ceiling value + %d B", size, over, ceiling)
		}
	}
}

// TestLogMatchesModel drives one partition through a seeded mix of
// appendBatch, appendAt with and without divergence, demote, retention trims
// and fetches from random offsets, against a []Record reference model.
// Values run from empty to 100 KiB, past any arena. Every fetch must equal
// the model with each value capped at its own length, and every value
// fetched before a truncation must stay byte-identical once new records
// take its offset: arena bytes are never rewritten.
func TestLogMatchesModel(t *testing.T) {
	const retain, steps = 400, 3000
	rng := rand.New(rand.NewSource(35))
	b := NewBroker(Options{RetainRecords: retain})
	defer b.Close()
	topic, err := b.CreateTopic("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	p := topic.parts[0]

	var model []Record // offsets [head, head+len(model))
	head := int64(0)
	end := func() int64 { return head + int64(len(model)) }
	step := 0
	// Large values come in phases: a run of small ones shrinks the arenas
	// the next large ones outgrow.
	value := func() []byte {
		n := rng.Intn(40)
		if step/300%2 == 1 && rng.Intn(10) == 0 {
			n = rng.Intn(100<<10 + 1)
		}
		v := make([]byte, n)
		rng.Read(v)
		return v
	}
	trim := func() {
		if len(model) > 2*retain {
			drop := len(model) - retain
			model = append([]Record(nil), model[drop:]...)
			head += int64(drop)
		}
	}
	type heldValue struct {
		rec  Record
		want []byte
	}
	var held []heldValue
	// truncate cuts the model at off, first holding a few of the values the
	// cut abandons, beside the newest of those held before: each pins an
	// arena.
	truncate := func(off int64) {
		if off >= end() {
			return
		}
		got, _, err := p.fetch(nil, off, 4, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range got {
			held = append(held[max(0, len(held)-16):], heldValue{rec, bytes.Clone(rec.Value)})
		}
		model = model[:off-head]
	}

	for ; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 5:
			recs := make([]BatchRecord, 1+rng.Intn(64))
			for i := range recs {
				recs[i] = BatchRecord{Key: rng.Uint64(), Value: value()}
			}
			first, err := p.appendBatch(recs)
			if err != nil || first != end() {
				t.Fatalf("step %d: appendBatch at %d, want %d, %v", step, first, end(), err)
			}
			for i, br := range recs {
				model = append(model, Record{Offset: first + int64(i), Key: br.Key, Value: bytes.Clone(br.Value)})
				rng.Read(br.Value) // the caller's to reuse
			}
			trim()
		case op < 7:
			// A leader's batch from somewhere in the log, or one past its end,
			// diverging from the log at some offset or nowhere.
			from := head + rng.Int63n(int64(len(model))+2)
			n := 1 + rng.Intn(80)
			diverge := from + rng.Int63n(int64(2*n))
			recs := make([]Record, n)
			for i := range recs {
				off := from + int64(i)
				if off < end() && off < diverge {
					recs[i] = model[off-head]
				} else {
					recs[i] = Record{Offset: off, Key: rng.Uint64(), Value: value()}
				}
			}
			wantNext, wantApplied := end(), 0
			if from <= end() {
				if diverge < from+int64(n) {
					truncate(diverge)
				}
				wantApplied = max(0, int(from+int64(n)-end()))
				model = append(model, recs[len(recs)-wantApplied:]...)
				wantNext = end()
			}
			next, applied, err := p.appendAt(from, recs)
			if err != nil || next != wantNext || applied != wantApplied {
				t.Fatalf("step %d: appendAt(%d, %d recs) = %d, %d, %v; want %d, %d", step, from, n, next, applied, err, wantNext, wantApplied)
			}
			if applied > 0 {
				trim()
			}
		case op < 8:
			cut := head + rng.Int63n(int64(len(model))+1)
			truncate(cut)
			p.mu.Lock()
			p.hw = cut
			p.mu.Unlock()
			p.demote()
			p.mu.Lock()
			p.hw = -1
			p.mu.Unlock()
		default:
			off := head - 5 + rng.Int63n(int64(len(model))+10)
			limit := 1 + rng.Intn(600)
			got, next, err := p.fetch([]Record{{Offset: -1}}, off, limit, 0, true)
			if err != nil || got[0].Offset != -1 {
				t.Fatalf("step %d: fetch dropped what dst held, %v", step, err)
			}
			from := max(off, head)
			want := model[:0]
			if from < end() {
				want = model[from-head : from-head+min(end()-from, int64(limit))]
				from += int64(len(want))
			}
			if next != from || !sameRecords(got[1:], want) {
				t.Fatalf("step %d: fetch(%d, %d) = %d records to %d, want %d to %d", step, off, limit, len(got)-1, next, len(want), from)
			}
		}
		if p.head != head || p.next != end() {
			t.Fatalf("step %d: log [%d, %d), model [%d, %d)", step, p.head, p.next, head, end())
		}
		for _, h := range held {
			if !bytes.Equal(h.rec.Value, h.want) {
				t.Fatalf("step %d: a value fetched at offset %d before a truncation was rewritten", step, h.rec.Offset)
			}
		}
	}
	if len(held) == 0 {
		t.Fatal("no truncation abandoned a fetched value")
	}
}

// sameRecords reports whether got equals want field for field, with every
// value of got capped at its own length.
func sameRecords(got, want []Record) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Offset != w.Offset || g.Key != w.Key || !bytes.Equal(g.Value, w.Value) || cap(g.Value) != len(g.Value) {
			return false
		}
	}
	return true
}

// TestLogReaderHoldsValuesWhileAppending: a reader holds what it fetched
// while a writer appends into the same chunk and retention drops the chunks
// behind both; under -race this is where an append reaching a handed-out
// byte would show.
func TestLogReaderHoldsValuesWhileAppending(t *testing.T) {
	const total = 20000
	b := NewBroker(Options{RetainRecords: 3000})
	defer b.Close()
	topic, err := b.CreateTopic("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	p := topic.parts[0]
	value := func(off int64) []byte { return bytes.Repeat([]byte{byte(off)}, int(off%50)) }
	done := make(chan struct{})
	go func() {
		defer close(done)
		for off := int64(0); off < total; {
			recs := make([]BatchRecord, min(1+off%17, total-off))
			for i := range recs {
				recs[i] = BatchRecord{Key: uint64(off), Value: value(off)}
				off++
			}
			if _, err := p.appendBatch(recs); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var held []Record
	check := func() {
		for _, rec := range held {
			if rec.Key != uint64(rec.Offset) || !bytes.Equal(rec.Value, value(rec.Offset)) {
				t.Fatalf("held record %d changed under the writer: key %d, %d bytes", rec.Offset, rec.Key, len(rec.Value))
			}
		}
	}
	for off := int64(0); off < total; {
		recs, next, err := p.fetch(nil, off, 100, time.Second, true)
		if err != nil || len(recs) == 0 {
			t.Fatalf("fetch at %d: %d records, %v", off, len(recs), err)
		}
		if held = append(held, recs...); len(held) > 2000 {
			check()
			held = held[:0]
		}
		off = next
	}
	check()
	<-done
}

// BenchmarkLogAppendFetch is the log's own cost per record: the broker
// side of a 64-record subs-shaped (20 B values) append_batch frame, eight
// of them, then one 512-record fetch into a reused slice.
func BenchmarkLogAppendFetch(b *testing.B) {
	const batch, fetch = 64, 512
	br := NewBroker(Options{RetainRecords: 1 << 16})
	defer br.Close()
	topic, err := br.CreateTopic("t", 1)
	if err != nil {
		b.Fatal(err)
	}
	p := topic.parts[0]
	w := codec.NewWriter(batch * 24)
	for i := 0; i < batch; i++ {
		w.Uvarint(uint64(i) * 7919)
		w.Bytes32(bytes.Repeat([]byte{byte(i)}, 20))
	}
	frame := w.Bytes()
	var got []Record
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var first int64
		for j := 0; j < fetch/batch; j++ {
			off, err := p.appendBatch(decodeBatch(codec.NewReader(frame), batch))
			if err != nil {
				b.Fatal(err)
			}
			if j == 0 {
				first = off
			}
		}
		if got, _, err = p.fetch(got[:0], first, fetch, 0, false); err != nil || len(got) != fetch {
			b.Fatalf("fetched %d records, %v", len(got), err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	recs := float64(b.N * fetch)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/recs, "ns/rec")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/recs, "allocs/rec")
}
