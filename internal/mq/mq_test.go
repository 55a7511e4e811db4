package mq

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestCreateTopic(t *testing.T) {
	b := NewBroker(Options{})
	defer b.Close()
	topic, err := b.CreateTopic("updates", 4)
	if err != nil {
		t.Fatal(err)
	}
	if topic.Name() != "updates" || topic.NumPartitions() != 4 {
		t.Fatal("topic shape wrong")
	}
	// Idempotent with matching partitions.
	again, err := b.CreateTopic("updates", 4)
	if err != nil || again != topic {
		t.Fatal("re-create should return the same topic")
	}
	if _, err := b.CreateTopic("updates", 8); err == nil {
		t.Fatal("partition mismatch should fail")
	}
	if _, err := b.CreateTopic("bad", 0); err == nil {
		t.Fatal("zero partitions should fail")
	}
	if _, ok := b.Topic("updates"); !ok {
		t.Fatal("lookup failed")
	}
	if _, ok := b.Topic("missing"); ok {
		t.Fatal("missing topic should not resolve")
	}
	if names := b.Topics(); len(names) != 1 || names[0] != "updates" {
		t.Fatalf("Topics = %v", names)
	}
}

func TestAppendFetchOrdering(t *testing.T) {
	b := NewBroker(Options{})
	defer b.Close()
	topic, _ := b.CreateTopic("t", 1)
	for i := 0; i < 100; i++ {
		off, err := topic.Append(0, uint64(i), []byte{byte(i)})
		if err != nil || off != int64(i) {
			t.Fatalf("append %d: off=%d err=%v", i, off, err)
		}
	}
	c := topic.NewConsumer(0, 0)
	var got []Record
	for len(got) < 100 {
		recs, err := c.Poll(7, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			t.Fatal("no records despite backlog")
		}
		got = append(got, recs...)
	}
	for i, r := range got {
		if r.Offset != int64(i) || r.Value[0] != byte(i) {
			t.Fatalf("record %d out of order: %+v", i, r)
		}
	}
	if c.Lag() != 0 {
		t.Fatalf("lag = %d", c.Lag())
	}
}

func TestAppendByKeyRouting(t *testing.T) {
	b := NewBroker(Options{})
	defer b.Close()
	topic, _ := b.CreateTopic("t", 8)
	for key := uint64(0); key < 1000; key++ {
		if _, err := topic.AppendByKey(key, nil); err != nil {
			t.Fatal(err)
		}
	}
	var total int64
	for i := 0; i < 8; i++ {
		d := topic.Depth(i)
		if d == 0 {
			t.Fatalf("partition %d got nothing — bad key spread", i)
		}
		total += d
	}
	if total != 1000 {
		t.Fatalf("total = %d", total)
	}
	// Same key must always route to the same partition.
	p1, p2 := topic.PartitionFor(42), topic.PartitionFor(42)
	if p1 != p2 {
		t.Fatal("routing not deterministic")
	}
}

func TestBlockingPoll(t *testing.T) {
	b := NewBroker(Options{})
	defer b.Close()
	topic, _ := b.CreateTopic("t", 1)
	c := topic.NewConsumer(0, 0)

	// Timeout path.
	start := time.Now()
	recs, err := c.Poll(1, 30*time.Millisecond)
	if err != nil || recs != nil {
		t.Fatalf("timeout poll: %v %v", recs, err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("poll returned before timeout")
	}

	// Wakeup path.
	done := make(chan []Record, 1)
	go func() {
		r, _ := c.Poll(1, 2*time.Second)
		done <- r
	}()
	time.Sleep(10 * time.Millisecond)
	topic.Append(0, 1, []byte("x"))
	select {
	case r := <-done:
		if len(r) != 1 || !bytes.Equal(r[0].Value, []byte("x")) {
			t.Fatalf("woken poll got %v", r)
		}
	case <-time.After(time.Second):
		t.Fatal("poll did not wake on append")
	}
}

func TestCloseWakesConsumers(t *testing.T) {
	b := NewBroker(Options{})
	topic, _ := b.CreateTopic("t", 1)
	c := topic.NewConsumer(0, 0)
	errs := make(chan error, 1)
	go func() {
		_, err := c.Poll(1, 10*time.Second)
		errs <- err
	}()
	time.Sleep(10 * time.Millisecond)
	b.Close()
	select {
	case err := <-errs:
		if err != ErrClosed {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("close did not wake consumer")
	}
	if _, err := topic.Append(0, 1, nil); err != ErrClosed {
		t.Fatal("append after close should fail")
	}
	if _, err := b.CreateTopic("new", 1); err != ErrClosed {
		t.Fatal("create after close should fail")
	}
	if b.Close() != nil {
		t.Fatal("double close should be nil")
	}
}

func TestRetention(t *testing.T) {
	b := NewBroker(Options{RetainRecords: 10})
	defer b.Close()
	topic, _ := b.CreateTopic("t", 1)
	for i := 0; i < 100; i++ {
		topic.Append(0, 0, []byte{byte(i)})
	}
	// Retention is amortized: the window stays within [retain, 2·retain].
	if d := topic.Depth(0); d < 10 || d > 20 {
		t.Fatalf("depth = %d, want within [10, 20]", d)
	}
	// A consumer behind the head snaps forward to the earliest retained,
	// and the newest record is always present.
	c := topic.NewConsumer(0, 0)
	recs, err := c.Poll(100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(recs)) != topic.Depth(0) {
		t.Fatalf("got %d records, depth %d", len(recs), topic.Depth(0))
	}
	if last := recs[len(recs)-1]; last.Offset != 99 || last.Value[0] != 99 {
		t.Fatalf("newest record wrong: %+v", last)
	}
	if recs[0].Offset < 80 {
		t.Fatalf("retained window too deep: starts at %d", recs[0].Offset)
	}
}

func TestAppendInvalidPartition(t *testing.T) {
	b := NewBroker(Options{})
	defer b.Close()
	topic, _ := b.CreateTopic("t", 2)
	if _, err := topic.Append(5, 0, nil); err == nil {
		t.Fatal("out-of-range partition should fail")
	}
	if _, err := topic.Append(-1, 0, nil); err == nil {
		t.Fatal("negative partition should fail")
	}
}

func TestConsumerSeek(t *testing.T) {
	b := NewBroker(Options{})
	defer b.Close()
	topic, _ := b.CreateTopic("t", 1)
	for i := 0; i < 10; i++ {
		topic.Append(0, 0, []byte{byte(i)})
	}
	c := topic.NewConsumer(0, 0)
	c.SeekTo(7)
	recs, _ := c.Poll(10, 0)
	if len(recs) != 3 || recs[0].Offset != 7 {
		t.Fatalf("seek fetch: %v", recs)
	}
	if c.Offset() != 10 {
		t.Fatalf("offset = %d", c.Offset())
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	b := NewBroker(Options{})
	defer b.Close()
	topic, _ := b.CreateTopic("t", 4)
	const producers, perProducer = 4, 2000

	var wg sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if _, err := topic.AppendByKey(uint64(id*perProducer+i), []byte{1}); err != nil {
					t.Error(err)
					return
				}
			}
		}(pr)
	}

	var consumed Counter
	var cwg sync.WaitGroup
	for p := 0; p < 4; p++ {
		cwg.Add(1)
		go func(part int) {
			defer cwg.Done()
			c := topic.NewConsumer(part, 0)
			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) {
				recs, err := c.Poll(256, 50*time.Millisecond)
				if err != nil {
					return
				}
				consumed.add(int64(len(recs)))
				if consumed.value() == producers*perProducer {
					return
				}
			}
		}(p)
	}
	wg.Wait()
	cwg.Wait()
	if consumed.value() != producers*perProducer {
		t.Fatalf("consumed %d of %d", consumed.value(), producers*perProducer)
	}
	if b.Appended.Value() != producers*perProducer {
		t.Fatalf("Appended = %d", b.Appended.Value())
	}
}

// Counter avoids importing sync/atomic repeatedly in the test.
type Counter struct {
	mu sync.Mutex
	n  int64
}

func (c *Counter) add(d int64) { c.mu.Lock(); c.n += d; c.mu.Unlock() }
func (c *Counter) value() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func TestDiskDurability(t *testing.T) {
	dir := t.TempDir()
	b := NewBroker(Options{Dir: dir, Fsync: FsyncAlways})
	topic, _ := b.CreateTopic("t", 2)
	for i := 0; i < 50; i++ {
		if _, err := topic.AppendByKey(uint64(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: records must replay.
	b2 := NewBroker(Options{Dir: dir})
	defer b2.Close()
	topic2, err := b2.CreateTopic("t", 2)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for p := 0; p < 2; p++ {
		c := topic2.NewConsumer(p, 0)
		recs, err := c.Poll(100, 0)
		if err != nil {
			t.Fatal(err)
		}
		total += len(recs)
	}
	if total != 50 {
		t.Fatalf("replayed %d of 50", total)
	}
	// Appends continue from the replayed offset.
	off, err := topic2.Append(0, 0, []byte("new"))
	if err != nil {
		t.Fatal(err)
	}
	if off != topic2.NextOffset(0)-1 {
		t.Fatal("offset after replay wrong")
	}
}

func TestDiskTruncatedTailTolerated(t *testing.T) {
	dir := t.TempDir()
	b := NewBroker(Options{Dir: dir, Fsync: FsyncAlways})
	topic, _ := b.CreateTopic("t", 1)
	for i := 0; i < 10; i++ {
		topic.Append(0, uint64(i), []byte("0123456789"))
	}
	b.Close()

	// Chop bytes off the tail to simulate a crash mid-write.
	path := segmentPath(dir, "t", 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	b2 := NewBroker(Options{Dir: dir})
	defer b2.Close()
	topic2, err := b2.CreateTopic("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	c := topic2.NewConsumer(0, 0)
	recs, _ := c.Poll(100, 0)
	if len(recs) != 9 {
		t.Fatalf("expected 9 intact records, got %d", len(recs))
	}
}

func TestSegmentFilesCreated(t *testing.T) {
	dir := t.TempDir()
	b := NewBroker(Options{Dir: dir})
	if _, err := b.CreateTopic("x", 3); err != nil {
		t.Fatal(err)
	}
	b.Close()
	files, _ := filepath.Glob(filepath.Join(dir, "x-*.log"))
	if len(files) != 3 {
		t.Fatalf("segment files = %v", files)
	}
}

func BenchmarkAppendByKey(b *testing.B) {
	br := NewBroker(Options{RetainRecords: 1 << 16})
	defer br.Close()
	topic, _ := br.CreateTopic("t", 8)
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		key := uint64(0)
		for pb.Next() {
			topic.AppendByKey(key, payload)
			key++
		}
	})
}

func BenchmarkPollBatch(b *testing.B) {
	br := NewBroker(Options{})
	defer br.Close()
	topic, _ := br.CreateTopic("t", 1)
	payload := make([]byte, 64)
	for i := 0; i < 100000; i++ {
		topic.Append(0, 0, payload)
	}
	b.ReportAllocs()
	b.ResetTimer()
	c := topic.NewConsumer(0, 0)
	fetched := 0
	for i := 0; i < b.N; i++ {
		recs, _ := c.Poll(256, 0)
		fetched += len(recs)
		if len(recs) == 0 {
			c.SeekTo(0)
		}
	}
}
