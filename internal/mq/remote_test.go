package mq

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"helios/internal/rpc"
)

func startRemote(t *testing.T) (*Broker, *RemoteBroker, func()) {
	t.Helper()
	b := NewBroker(Options{})
	srv := rpc.NewServer()
	ServeBroker(b, srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rb, err := DialBroker(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return b, rb, func() {
		rb.Close()
		srv.Close()
		b.Close()
	}
}

func TestRemoteOpenAppendPoll(t *testing.T) {
	_, rb, done := startRemote(t)
	defer done()
	topic, err := rb.OpenTopic("t", 2)
	if err != nil {
		t.Fatal(err)
	}
	if topic.Name() != "t" || topic.NumPartitions() != 2 {
		t.Fatal("remote topic shape")
	}
	for i := 0; i < 20; i++ {
		off, err := topic.Append(0, uint64(i), []byte{byte(i)})
		if err != nil || off != int64(i) {
			t.Fatalf("append %d: %d %v", i, off, err)
		}
	}
	c := topic.OpenConsumer(0, 0)
	var got []Record
	for len(got) < 20 {
		recs, err := c.Poll(7, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, recs...)
	}
	for i, r := range got {
		if r.Offset != int64(i) || !bytes.Equal(r.Value, []byte{byte(i)}) {
			t.Fatalf("record %d: %+v", i, r)
		}
	}
	if c.Lag() != 0 {
		t.Fatalf("lag = %d", c.Lag())
	}
	if topic.NextOffset(0) != 20 || topic.Depth(0) != 20 {
		t.Fatal("meta wrong")
	}
}

func TestRemoteAppendByKeyAgreesWithLocal(t *testing.T) {
	b, rb, done := startRemote(t)
	defer done()
	remote, _ := rb.OpenTopic("t", 8)
	local, _ := b.Topic("t")
	for key := uint64(0); key < 100; key++ {
		if _, err := remote.AppendByKey(key, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Routing must match the local PartitionFor rule exactly.
	for key := uint64(0); key < 100; key++ {
		p := local.PartitionFor(key)
		found := false
		c := local.NewConsumer(p, 0)
		recs, _ := c.Poll(1000, 0)
		for _, r := range recs {
			if r.Key == key {
				found = true
			}
		}
		if !found {
			t.Fatalf("key %d not in expected partition %d", key, p)
		}
	}
}

func TestRemoteLongPollWakeup(t *testing.T) {
	b, rb, done := startRemote(t)
	defer done()
	topic, _ := rb.OpenTopic("t", 1)
	c := topic.OpenConsumer(0, 0)
	got := make(chan []Record, 1)
	go func() {
		recs, _ := c.Poll(1, 3*time.Second)
		got <- recs
	}()
	time.Sleep(20 * time.Millisecond)
	lt, _ := b.Topic("t")
	lt.Append(0, 1, []byte("wake"))
	select {
	case recs := <-got:
		if len(recs) != 1 || !bytes.Equal(recs[0].Value, []byte("wake")) {
			t.Fatalf("recs = %v", recs)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("long poll did not wake")
	}
}

func TestRemotePollTimeout(t *testing.T) {
	_, rb, done := startRemote(t)
	defer done()
	topic, _ := rb.OpenTopic("t", 1)
	c := topic.OpenConsumer(0, 0)
	start := time.Now()
	recs, err := c.Poll(1, 50*time.Millisecond)
	if err != nil || len(recs) != 0 {
		t.Fatalf("%v %v", recs, err)
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Fatal("timeout returned too early")
	}
}

func TestRemoteSeekAndOffset(t *testing.T) {
	_, rb, done := startRemote(t)
	defer done()
	topic, _ := rb.OpenTopic("t", 1)
	for i := 0; i < 10; i++ {
		topic.Append(0, 0, []byte{byte(i)})
	}
	c := topic.OpenConsumer(0, 0)
	c.SeekTo(6)
	recs, err := c.Poll(10, 0)
	if err != nil || len(recs) != 4 || recs[0].Offset != 6 {
		t.Fatalf("seek poll: %v %v", recs, err)
	}
	if c.Offset() != 10 {
		t.Fatalf("offset = %d", c.Offset())
	}
}

func TestRemoteUnknownTopicErrors(t *testing.T) {
	_, rb, done := startRemote(t)
	defer done()
	phantom := &RemoteTopic{via: rb, timeout: rb.timeout, name: "ghost", parts: 1}
	if _, err := phantom.Append(0, 0, nil); err == nil {
		t.Fatal("append to unknown topic should fail")
	}
	c := phantom.OpenConsumer(0, 0)
	if _, err := c.Poll(1, 0); err == nil {
		t.Fatal("poll of unknown topic should fail")
	}
}

func TestRemoteConcurrentProducers(t *testing.T) {
	_, rb, done := startRemote(t)
	defer done()
	topic, _ := rb.OpenTopic("t", 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := topic.AppendByKey(uint64(id*1000+i), []byte(fmt.Sprintf("%d", i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	total := int64(0)
	for p := 0; p < 4; p++ {
		total += topic.Depth(p)
	}
	if total != 800 {
		t.Fatalf("total = %d", total)
	}
}
