package mq

import "testing"

// TestOffsetSemantics pins the offset bookkeeping conventions so an
// off-by-one between "next offset" and "last delivered" cannot creep in:
// EndOffset is one past the last appended record (Kafka's LEO), a
// cursor's Offset is one past the last delivered record, and lag is the
// plain difference of the two with no ±1 adjustment anywhere.
func TestOffsetSemantics(t *testing.T) {
	b := NewBroker(Options{})
	defer b.Close()
	topic, err := b.CreateTopic("t", 1)
	if err != nil {
		t.Fatal(err)
	}

	// Empty partition: everything is zero.
	if topic.EndOffset(0) != 0 {
		t.Fatalf("empty partition: EndOffset=%d, want 0", topic.EndOffset(0))
	}
	c := topic.OpenConsumer(0, 0)
	lag := func() int64 { return topic.EndOffset(0) - c.Offset() } // as every worker computes it
	if c.Offset() != 0 || lag() != 0 {
		t.Fatalf("empty partition: Offset=%d Lag=%d, want 0/0", c.Offset(), lag())
	}

	// Append 5 records; offsets must be 0..4 and EndOffset 5.
	for i := 0; i < 5; i++ {
		off, err := topic.Append(0, uint64(i), []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if off != int64(i) {
			t.Fatalf("append %d got offset %d", i, off)
		}
	}
	if topic.EndOffset(0) != 5 {
		t.Fatalf("EndOffset = %d after 5 appends, want 5", topic.EndOffset(0))
	}
	if lag() != 5 {
		t.Fatalf("Lag = %d with nothing consumed, want 5", lag())
	}

	// Deliver 3: the offset must be one PAST the last delivered record.
	recs, err := c.Poll(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("polled %d records, want 3", len(recs))
	}
	last := recs[len(recs)-1].Offset
	if last != 2 {
		t.Fatalf("last delivered offset = %d, want 2", last)
	}
	if c.Offset() != last+1 {
		t.Fatalf("Offset = %d, want last delivered + 1 = %d (off-by-one)", c.Offset(), last+1)
	}
	if got := lag(); got != 2 {
		t.Fatalf("lag = EndOffset-Offset = %d, want 2", got)
	}

	// Drain: lag hits exactly zero (not -1 or 1), and a re-poll at the
	// cursor's offset returns nothing rather than redelivering.
	if recs, err = c.Poll(10, 0); err != nil || len(recs) != 2 {
		t.Fatalf("drain: %d records, err %v, want 2/nil", len(recs), err)
	}
	if c.Offset() != 5 || lag() != 0 {
		t.Fatalf("drained: Offset=%d Lag=%d, want 5/0", c.Offset(), lag())
	}
	if recs, err = c.Poll(10, 0); err != nil || len(recs) != 0 {
		t.Fatalf("poll past end redelivered %d records (err %v)", len(recs), err)
	}
	if c.Offset() != 5 {
		t.Fatalf("empty poll moved Offset to %d", c.Offset())
	}
}
