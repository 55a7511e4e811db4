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
// frame in, contiguous offsets out, values read back byte-identical.
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

// TestAppendCopiesValues pins where a value's one copy is made: in the
// log, by AppendBatch. A local batch, a batch decoded off an append frame,
// and a remote batch over a loopback broker each leave the caller's bytes —
// or the frame's — free for reuse once the call returns, and every fetched
// value is capped at its own length, so an append to one cannot reach its
// neighbour.
func TestAppendCopiesValues(t *testing.T) {
	const n = 64
	want := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, i%7) }
	// batch carves the values out of one buffer, as an encoder's would be.
	batch := func() ([]BatchRecord, []byte) {
		var buf []byte
		for i := 0; i < n; i++ {
			buf = append(buf, want(i)...)
		}
		recs, off := make([]BatchRecord, n), 0
		for i := range recs {
			recs[i] = BatchRecord{Key: uint64(i), Value: buf[off : off+i%7]}
			off += i % 7
		}
		return recs, buf
	}
	scribble := func(b []byte) {
		for i := range b {
			b[i] = 0xEE
		}
	}
	check := func(path string, topic *Topic, part int) {
		t.Helper()
		got, err := topic.NewConsumer(part, 0).Poll(2*n, 0)
		if err != nil || len(got) != n {
			t.Fatalf("%s: %d records, %v", path, len(got), err)
		}
		for i, rec := range got {
			if rec.Key != uint64(i) || !bytes.Equal(rec.Value, want(i)) {
				t.Fatalf("%s: record %d after its source was reused: %+v", path, i, rec)
			}
			if cap(rec.Value) != len(rec.Value) {
				t.Fatalf("%s: record %d: cap %d > len %d reaches into its neighbour", path, i, cap(rec.Value), len(rec.Value))
			}
		}
		grown := append(got[1].Value, 0xFF)
		if got[2].Value[0] != 2 || &grown[0] == &got[1].Value[0] {
			t.Fatalf("%s: an append to one value wrote into the log", path)
		}
	}

	b := NewBroker(Options{})
	defer b.Close()
	topic, err := b.CreateTopic("t", 2)
	if err != nil {
		t.Fatal(err)
	}
	recs, buf := batch()
	if _, err := topic.AppendBatch(0, recs); err != nil {
		t.Fatal(err)
	}
	scribble(buf)
	check("local", topic, 0)

	w := codec.NewWriter(1024)
	recs, _ = batch()
	for _, rec := range recs {
		w.Uvarint(rec.Key)
		w.Bytes32(rec.Value)
	}
	frame := append([]byte(nil), w.Bytes()...)
	r := codec.NewReader(frame)
	decoded := decodeBatch(r, n)
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := topic.AppendBatch(1, decoded); err != nil {
		t.Fatal(err)
	}
	scribble(frame)
	check("frame", topic, 1)
	short := codec.NewReader(frame[:len(frame)-3])
	decodeBatch(short, n)
	if short.Finish() == nil {
		t.Fatal("truncated batch frame decoded without error")
	}

	local, rb, done := startRemote(t)
	defer done()
	rt, err := rb.OpenTopic("t", 2)
	if err != nil {
		t.Fatal(err)
	}
	recs, buf = batch()
	if _, err := rt.AppendBatch(0, recs); err != nil {
		t.Fatal(err)
	}
	scribble(buf)
	// The next frames land in the read buffer the first one was read into.
	for i := range recs {
		recs[i].Value = bytes.Repeat([]byte{0xEE}, 7)
	}
	for i := 0; i < 4; i++ {
		if _, err := rt.AppendBatch(1, recs); err != nil {
			t.Fatal(err)
		}
	}
	lt, _ := local.Topic("t")
	check("remote", lt, 0)
}
