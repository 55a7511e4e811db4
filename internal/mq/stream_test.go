package mq

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"helios/internal/codec"
	"helios/internal/rpc"
)

// frameOf encodes a request the way the client does, field by field.
func frameOf(fields ...any) []byte {
	w := codec.NewWriter(64)
	for _, f := range fields {
		switch v := f.(type) {
		case string:
			w.String(v)
		case uint64:
			w.Uvarint(v)
		case int64:
			w.Varint(v)
		case []byte:
			w.Bytes32(v)
		}
	}
	return w.Bytes()
}

// TestHostileFramesAreRefused feeds every broker handler, and the client's
// batch decoder, a truncated frame and one whose count or index no frame
// could back (and a fetch carrying a replica marker, which a broker that
// does not replicate has no follower for). Each must answer with an error —
// not a panic, not a loop or an allocation sized by the number it was
// handed — and leave the broker serving.
func TestHostileFramesAreRefused(t *testing.T) {
	b := NewBroker(Options{})
	defer b.Close()
	srv, addr := serveOn(t, b, "")
	defer srv.Close()
	if _, err := b.CreateTopic("t", 2); err != nil {
		t.Fatal(err)
	}
	c, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const huge = uint64(1) << 62
	valid := map[string][]byte{
		methodOpenTopic:   frameOf("t", uint64(2)),
		methodAppend:      frameOf("t", uint64(1), uint64(7), []byte("value")),
		methodAppendBatch: frameOf("t", uint64(1), uint64(2), uint64(7), []byte("a"), uint64(8), []byte("b")),
		methodFetch:       frameOf("t", uint64(1), int64(0), uint64(10)),
		methodMeta:        frameOf("t", uint64(1)),
		methodCommit:      frameOf("t", uint64(1), int64(0)),
		MethodLead:        EncodePartMap(PartMap{Version: 1, Leaders: map[PartKey]int{{Topic: "t", Partition: 1}: 0}}),
	}
	hostile := map[string][][]byte{
		methodOpenTopic:   {frameOf("t", huge)},
		methodAppend:      {frameOf("t", huge, uint64(7), []byte("v")), append(frameOf("t", uint64(1), uint64(7)), frameOf(huge)...)},
		methodAppendBatch: {frameOf("t", huge, uint64(1), uint64(7), []byte("a")), frameOf("t", uint64(1), huge, uint64(7), []byte("a"))},
		methodFetch:       {frameOf("t", huge, int64(0), uint64(10)), frameOf("t", uint64(1), int64(0), uint64(10), uint64(1), int64(0), uint64(0))},
		methodMeta:        {frameOf("t", huge)},
		methodCommit:      {frameOf("t", huge, int64(0))},
		MethodLead:        {frameOf(int64(1), huge), frameOf(int64(1), uint64(1), "t", huge, uint64(0))},
	}
	call := func(method string, req []byte) error {
		if method != methodFetch {
			_, err := c.Call(method, req, 5*time.Second)
			return err
		}
		st, err := c.OpenStream(method, req, fetchWindow)
		if err != nil {
			return err
		}
		_, err = st.Recv(5 * time.Second)
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for method, ok := range valid {
		if err := call(method, ok); err != nil {
			t.Fatalf("%s: the well-formed frame was refused: %v", method, err)
		}
		frames := append(hostile[method], ok[:len(ok)-1], ok[:1], nil)
		for i, req := range frames {
			if err := call(method, req); err == nil {
				t.Errorf("%s: hostile frame %d (% x) was accepted", method, i, req)
			}
		}
		if err := call(method, ok); err != nil {
			t.Fatalf("%s after the hostile frames: %v", method, err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("the hostile frames made the process allocate %d bytes", grew)
	}

	batch := codec.NewWriter(64)
	encodeFetchBatch(batch, 40, []Record{{Key: 1, Ts: 2, Value: []byte("abc")}, {Key: 3, Ts: 4, Value: nil}})
	good := batch.Bytes()
	if recs, err := decodeFetchBatch(good); err != nil || len(recs) != 2 || recs[1].Offset != 41 {
		t.Fatalf("well-formed batch: %v, %v", recs, err)
	}
	for i, payload := range [][]byte{good[:len(good)-1], good[:2], nil, frameOf(int64(40), huge), append(good[:len(good):len(good)], 0)} {
		if recs, err := decodeFetchBatch(payload); err == nil {
			t.Errorf("hostile batch %d (% x) decoded to %d records", i, payload, len(recs))
		}
	}
}

// TestDecodeFetchBatchAliasesItsPayload: a pushed batch costs the client
// the record slice and nothing per record — the values are the payload's own
// bytes, each capped at its own length so an append to one cannot reach the
// next.
func TestDecodeFetchBatchAliasesItsPayload(t *testing.T) {
	const n = 64
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Offset: 100 + int64(i), Key: uint64(i), Ts: int64(1000 + i), Value: bytes.Repeat([]byte{byte(i)}, i%7)}
	}
	w := codec.NewWriter(1024)
	encodeFetchBatch(w, 100, recs)
	payload := append([]byte(nil), w.Bytes()...)

	got, err := decodeFetchBatch(payload)
	if err != nil || len(got) != n {
		t.Fatalf("%d records, %v", len(got), err)
	}
	for i, rec := range got {
		if rec.Offset != recs[i].Offset || rec.Key != recs[i].Key || rec.Ts != recs[i].Ts || !bytes.Equal(rec.Value, recs[i].Value) {
			t.Fatalf("record %d: %+v, want %+v", i, rec, recs[i])
		}
		if cap(rec.Value) != len(rec.Value) {
			t.Fatalf("record %d: cap %d > len %d reaches into its neighbour", i, cap(rec.Value), len(rec.Value))
		}
	}
	got[1].Value[0] = 0xEE
	if again, _ := decodeFetchBatch(payload); again[1].Value[0] != 0xEE {
		t.Fatal("values were copied out of the payload")
	}
	if allocs := testing.AllocsPerRun(50, func() { decodeFetchBatch(payload) }); allocs > 1 {
		t.Fatalf("decodeFetchBatch of %d records: %.0f allocations, want the record slice alone", n, allocs)
	}
}

// TestPollSmallerThanPushedBatch: a stream is opened with the first poll's
// size; a later, smaller poll takes the head of a pushed batch and leaves
// the rest for the next, in order.
func TestPollSmallerThanPushedBatch(t *testing.T) {
	_, rb, done := startRemote(t)
	defer done()
	topic, _ := rb.OpenTopic("t", 1)
	for i := 0; i < 40; i++ {
		if _, err := topic.Append(0, uint64(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	c := topic.OpenConsumer(0, 0)
	next := int64(0)
	for i, size := range []int{10, 3, 3, 100, 1, 0, 20, 20} {
		recs, err := c.Poll(size, time.Second)
		if err != nil || len(recs) == 0 || len(recs) > max(size, 1) {
			t.Fatalf("poll %d of %d: %d records, %v", i, size, len(recs), err)
		}
		for _, rec := range recs {
			if rec.Offset != next {
				t.Fatalf("poll %d: offset %d, want %d", i, rec.Offset, next)
			}
			next++
		}
		if c.Offset() != next {
			t.Fatalf("poll %d: cursor at %d after delivering up to %d", i, c.Offset(), next)
		}
	}
}

// TestIdlePollReturnsOnTime: wait is the whole Poll's, not each stream's. An
// idle stream ends every maxFetchPark and Poll re-opens it; a Poll longer
// than that still returns, empty, when its wait is up — and still delivers a
// record that arrives under a later stream.
func TestIdlePollReturnsOnTime(t *testing.T) {
	_, rb, done := startRemote(t)
	defer done()
	topic, _ := rb.OpenTopic("t", 1)
	c := topic.OpenConsumer(0, 0)
	const wait = 2*maxFetchPark + 100*time.Millisecond
	start := time.Now()
	recs, err := c.Poll(1, wait)
	if took := time.Since(start); err != nil || len(recs) != 0 || took < wait || took > wait+maxFetchPark {
		t.Fatalf("idle Poll(1, %v): %d records, %v, after %v", wait, len(recs), err, took)
	}
	time.AfterFunc(maxFetchPark+50*time.Millisecond, func() { topic.Append(0, 1, []byte("late")) })
	if recs, err = c.Poll(1, 10*wait); err != nil || len(recs) != 1 || string(recs[0].Value) != "late" {
		t.Fatalf("Poll across an ended stream: %v, %v", recs, err)
	}
}

// TestStalledConsumerDoesNotDelayAppends: a consumer that stops polling
// with a full window of pushed batches unread — several megabytes, more than
// the socket buffers hold — delays nothing else on its connection, because
// the client's read loop buffers the whole window and never waits on it.
func TestStalledConsumerDoesNotDelayAppends(t *testing.T) {
	b, rb, done := startRemote(t)
	defer done()
	topic, err := rb.OpenTopic("t", 2)
	if err != nil {
		t.Fatal(err)
	}
	local, _ := b.Topic("t")
	big := bytes.Repeat([]byte{0xCD}, 128<<10)
	for i := 0; i < 2*fetchWindow; i++ {
		if _, err := local.Append(0, uint64(i), big); err != nil {
			t.Fatal(err)
		}
	}
	stalled := topic.OpenConsumer(0, 0)
	if recs, err := stalled.Poll(1, 5*time.Second); err != nil || len(recs) != 1 {
		t.Fatalf("first poll: %d records, %v", len(recs), err)
	}
	// The broker now pushes the rest of the window, one 128 KiB record a
	// batch; nobody polls it.
	start := time.Now()
	for i := 0; i < 200; i++ {
		if _, err := topic.AppendBatch(1, []BatchRecord{{Key: uint64(i), Value: []byte("small")}}); err != nil {
			t.Fatalf("append %d beside a stalled consumer: %v", i, err)
		}
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("200 appends beside a stalled consumer took %v", took)
	}
	// The stalled cursor lost nothing: it resumes in order, across the
	// window's end and the re-open behind it.
	next := int64(1)
	for next < 2*fetchWindow {
		recs, err := stalled.Poll(1, 5*time.Second)
		if err != nil || len(recs) != 1 || recs[0].Offset != next || !bytes.Equal(recs[0].Value, big) {
			t.Fatalf("resumed poll at %d: %d records, %v", next, len(recs), err)
		}
		next++
	}
}

// FuzzFetchBatch: the pushed-batch decoder takes whatever a socket hands
// it. It must never panic, never size an allocation from a count the input
// cannot back, and what it accepts must re-encode to a batch that decodes
// the same.
func FuzzFetchBatch(f *testing.F) {
	w := codec.NewWriter(64)
	encodeFetchBatch(w, 40, []Record{{Key: 1, Ts: 2, Value: []byte("abc")}, {Key: 3, Ts: 4}})
	good := append([]byte(nil), w.Bytes()...)
	f.Add(good)
	f.Add(good[:len(good)-1])                  // truncated
	f.Add(frameOf(int64(40), uint64(1)<<62))   // a count no input could back
	f.Add(frameOf(int64(40), uint64(3), good)) // a value length past the end
	f.Fuzz(func(t *testing.T, payload []byte) {
		recs, err := decodeFetchBatch(payload)
		if err != nil {
			return
		}
		if len(recs) > len(payload)/3 {
			t.Fatalf("%d records from %d bytes", len(recs), len(payload))
		}
		if len(recs) == 0 {
			return
		}
		w := codec.NewWriter(len(payload))
		encodeFetchBatch(w, recs[0].Offset, recs)
		again, err := decodeFetchBatch(w.Bytes())
		if err != nil || len(again) != len(recs) {
			t.Fatalf("re-encoded batch: %d records, %v", len(again), err)
		}
		for i := range recs {
			if again[i].Offset != recs[i].Offset || again[i].Key != recs[i].Key || again[i].Ts != recs[i].Ts || !bytes.Equal(again[i].Value, recs[i].Value) {
				t.Fatalf("record %d: %+v re-encoded to %+v", i, recs[i], again[i])
			}
		}
	})
}
