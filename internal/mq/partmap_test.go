package mq

import (
	"reflect"
	"testing"
	"time"

	"helios/internal/rpc"
)

// TestClusterRefusesOutOfRangeLeader serves a cluster client a partition
// map that names a leader outside its replica set — past the end, and
// negative once cast to int — and a broker the same maps. Routing by such a
// map indexes the client table out of range; the map must be refused
// whole, so the call is answered under the map before it.
func TestClusterRefusesOutOfRangeLeader(t *testing.T) {
	b := NewBroker(Options{})
	defer b.Close()
	srv, addr := serveOn(t, b, "")
	defer srv.Close()

	for _, leader := range []int{7, -1} {
		bad := PartMap{Version: 1, Leaders: map[PartKey]int{{Topic: "t", Partition: 0}: leader}}
		coordSrv := rpc.NewServer()
		coordSrv.Handle(MethodPartMap, func([]byte) ([]byte, error) { return EncodePartMap(bad), nil })
		coordAddr, err := coordSrv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer coordSrv.Close()
		cl, err := DialCluster([]string{addr}, coordAddr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		tp, err := cl.OpenTopic("t", 1)
		if err != nil {
			t.Fatal(err)
		}
		cl.refreshMap()
		if _, err := tp.Append(0, 1, []byte("x")); err != nil {
			t.Fatalf("leader %d: append under the refused map: %v", leader, err)
		}
	}

	rb := NewBroker(Options{})
	defer rb.Close()
	if err := rb.EnableReplication(ReplicationConfig{Self: 0, Peers: []string{addr, "127.0.0.1:1", "127.0.0.1:2"}}); err != nil {
		t.Fatal(err)
	}
	if rb.ApplyPartMap(PartMap{Version: 1, Leaders: map[PartKey]int{{Topic: "t", Partition: 0}: 3}}) {
		t.Fatal("a broker adopted a map naming replica 3 of 3")
	}
	if v := rb.PartMap().Version; v != 0 {
		t.Fatalf("refused map left version %d, want 0", v)
	}
}

// FuzzPartMap is the partition-map decoder under arbitrary input — the
// bytes a client takes off the coordinator's socket and a broker off a map
// push. It must never panic, and what it accepts must re-encode to a map
// that decodes the same.
func FuzzPartMap(f *testing.F) {
	good := EncodePartMap(PartMap{Version: 3, Leaders: map[PartKey]int{{Topic: "t", Partition: 1}: 2}})
	f.Add(good)
	f.Add(good[:len(good)-1])                               // truncated
	f.Add(frameOf(int64(3), uint64(1)<<62))                 // a count no input could back
	f.Add(frameOf(int64(3), uint64(1), "t", uint64(1)<<63)) // a partition negative as an int
	f.Fuzz(func(t *testing.T, buf []byte) {
		pm, err := DecodePartMap(buf)
		if err != nil {
			return
		}
		again, err := DecodePartMap(EncodePartMap(pm))
		if err != nil || !reflect.DeepEqual(again, pm) {
			t.Fatalf("%+v re-encoded to %+v, %v", pm, again, err)
		}
	})
}
