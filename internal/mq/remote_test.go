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
	if lag := topic.EndOffset(0) - c.Offset(); lag != 0 {
		t.Fatalf("lag = %d", lag)
	}
	if topic.EndOffset(0) != 20 {
		t.Fatal("meta wrong")
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
	c := topic.OpenConsumer(0, 6)
	recs, err := c.Poll(10, 0)
	if err != nil || len(recs) != 4 || recs[0].Offset != 6 {
		t.Fatalf("seek poll: %v %v", recs, err)
	}
	if c.Offset() != 10 {
		t.Fatalf("offset = %d", c.Offset())
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
				if _, err := topic.Append(i%4, uint64(id*1000+i), []byte(fmt.Sprintf("%d", i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	total := int64(0)
	for p := 0; p < 4; p++ {
		total += topic.EndOffset(p)
	}
	if total != 800 {
		t.Fatalf("total = %d", total)
	}
}
