package mq

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"helios/internal/codec"
)

// TestAppendBatchLocal checks the local batch append contract: records
// land contiguously in slice order, the first offset is returned, and a
// consumer reads them back byte-identical.
func TestAppendBatchLocal(t *testing.T) {
	b := NewBroker(Options{})
	defer b.Close()
	topic, err := b.CreateTopic("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topic.Append(0, 0, []byte("pre")); err != nil {
		t.Fatal(err)
	}
	recs := make([]BatchRecord, 5)
	for i := range recs {
		recs[i] = BatchRecord{Key: uint64(i), Value: []byte(fmt.Sprintf("v%d", i))}
	}
	first, err := topic.AppendBatch(0, recs)
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 {
		t.Fatalf("first offset %d, want 1", first)
	}
	if topic.NextOffset(0) != 6 {
		t.Fatalf("next offset %d, want 6", topic.NextOffset(0))
	}
	cons := topic.NewConsumer(0, first)
	got, err := cons.Poll(10, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("polled %d records, want 5", len(got))
	}
	for i, r := range got {
		if r.Offset != first+int64(i) || r.Key != uint64(i) || !bytes.Equal(r.Value, recs[i].Value) {
			t.Fatalf("record %d: %+v", i, r)
		}
	}
}

// TestAppendBatchEmpty checks the no-op contract: an empty batch appends
// nothing and reports the next offset.
func TestAppendBatchEmpty(t *testing.T) {
	b := NewBroker(Options{})
	defer b.Close()
	topic, _ := b.CreateTopic("t", 1)
	topic.Append(0, 1, []byte("x"))
	off, err := topic.AppendBatch(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if off != 1 || topic.NextOffset(0) != 1 {
		t.Fatalf("empty batch: off=%d next=%d, want 1/1", off, topic.NextOffset(0))
	}
}

// TestAppendBatchRemote drives the batch through the RPC framing: one
// frame in, contiguous offsets out, values copied out of the frame
// buffer (the local broker takes ownership, so the remote handler must
// copy before the frame buffer is recycled).
func TestAppendBatchRemote(t *testing.T) {
	local, rb, done := startRemote(t)
	defer done()
	rt, err := rb.OpenTopic("t", 2)
	if err != nil {
		t.Fatal(err)
	}
	recs := []BatchRecord{
		{Key: 1, Value: []byte("a")},
		{Key: 2, Value: []byte("bb")},
		{Key: 3, Value: []byte("ccc")},
	}
	first, err := rt.AppendBatch(1, recs)
	if err != nil {
		t.Fatal(err)
	}
	if first != 0 {
		t.Fatalf("first offset %d, want 0", first)
	}
	lt, ok := local.Topic("t")
	if !ok {
		t.Fatal("topic missing broker-side")
	}
	if lt.NextOffset(1) != 3 {
		t.Fatalf("broker next offset %d, want 3", lt.NextOffset(1))
	}
	cons := rt.OpenConsumer(1, 0)
	got, err := cons.Poll(10, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || !bytes.Equal(got[2].Value, []byte("ccc")) || got[2].Key != 3 {
		t.Fatalf("remote batch read back: %+v", got)
	}
	// Empty remote batch: no frame-level surprises, next offset reported.
	off, err := rt.AppendBatch(1, nil)
	if err != nil || off != 3 {
		t.Fatalf("empty remote batch: off=%d err=%v", off, err)
	}
}

// TestAppendBatchBrokerBound checks the broker-side batch cap: a batch
// above MaxAppendBatch is refused whole, at the cap it lands.
func TestAppendBatchBrokerBound(t *testing.T) {
	b, rb, done := startRemote(t)
	defer done()
	rt, err := rb.OpenTopic("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]BatchRecord, MaxAppendBatch+1)
	for i := range recs {
		recs[i].Value = []byte{byte(i)}
	}
	if _, err := rt.AppendBatch(0, recs); err == nil {
		t.Fatal("batch above broker bound should be refused")
	}
	lt, _ := b.Topic("t")
	if lt.NextOffset(0) != 0 {
		t.Fatalf("refused batch left partial records: next=%d", lt.NextOffset(0))
	}
	if _, err := rt.AppendBatch(0, recs[:MaxAppendBatch]); err != nil {
		t.Fatalf("batch at bound: %v", err)
	}
	if lt.NextOffset(0) != MaxAppendBatch {
		t.Fatalf("batch at bound landed %d records", lt.NextOffset(0))
	}
}

// TestDecodeBatchOwnsOneBacking checks the batch handler's copy-out: the
// values no longer alias the (pooled) frame, they sit back to back in a
// single allocation however many records the batch has, each capped at
// its own length so an append to one cannot reach the next, and a
// truncated frame is reported by the reader.
func TestDecodeBatchOwnsOneBacking(t *testing.T) {
	const n = 64
	w := codec.NewWriter(1024)
	for i := 0; i < n; i++ {
		w.Uvarint(uint64(i))
		w.Bytes32(bytes.Repeat([]byte{byte(i)}, i%7))
	}
	frame := append([]byte(nil), w.Bytes()...)

	r := codec.NewReader(frame)
	recs := decodeBatch(r, n)
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] = 0xEE // the pool hands the frame to someone else
	}
	for i, rec := range recs {
		if rec.Key != uint64(i) || !bytes.Equal(rec.Value, bytes.Repeat([]byte{byte(i)}, i%7)) {
			t.Fatalf("record %d after the frame was reused: %+v", i, rec)
		}
		if cap(rec.Value) != len(rec.Value) {
			t.Fatalf("record %d: cap %d > len %d reaches into its neighbour", i, cap(rec.Value), len(rec.Value))
		}
	}
	grown := append(recs[1].Value, 0xFF)
	if recs[2].Value[0] != 2 || &grown[0] == &recs[1].Value[0] {
		t.Fatal("append to one value wrote into the shared backing")
	}

	frame = append(frame[:0], w.Bytes()...)
	allocs := testing.AllocsPerRun(50, func() {
		decodeBatch(codec.NewReader(frame), n)
	})
	// The record slice and the shared backing — the reader itself may or
	// may not escape. One make per record would be 64+.
	if allocs > 3 {
		t.Fatalf("decodeBatch of %d records: %.0f allocations, want the record slice plus one backing", n, allocs)
	}

	short := codec.NewReader(frame[:len(frame)-3])
	decodeBatch(short, n)
	if short.Finish() == nil {
		t.Fatal("truncated batch frame decoded without error")
	}
}
