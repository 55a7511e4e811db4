package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"helios/internal/codec"
	"helios/internal/graph"
	"helios/internal/kvstore"
	"helios/internal/mq"
	"helios/internal/rpc"
	"helios/internal/sampler"
	"helios/internal/sampling"
	"helios/internal/serving"
	"helios/internal/wire"
)

// leafProbes times the layers below the request path from outside, each
// through its public calls alone: codecs, the RPC round trip, the broker's
// local append and poll, the reservoir step, a standalone sampling worker
// and serving worker on a private in-process broker, and the cache store's
// memory and spill tiers.
func leafProbes(p traceParams, d *dataset, m map[string]metric) error {
	edge := d.tail[0]
	edge.Ingested = 1

	// codec: one edge update.
	payload := codec.EncodeUpdate(edge)
	var sink int
	m["codec.update_encode_ns"] = metric{Unit: "ns", Samples: 100000, Value: perOp(100000, func(int) {
		sink += len(codec.EncodeUpdate(edge))
	})}
	var derr error
	m["codec.update_decode_ns"] = metric{Unit: "ns", Samples: 100000, Value: perOp(100000, func(int) {
		if _, err := codec.DecodeUpdate(payload); err != nil {
			derr = err
		}
	})}

	// wire: a full first-hop reservoir snapshot.
	up := wire.Message{Kind: wire.KindSampleUpsert, Hop: 0, Vertex: edge.Edge.Src, Ingested: 1}
	for i := 0; i < 25; i++ {
		up.Samples = append(up.Samples, wire.SampleRef{Neighbor: d.targets[i%len(d.targets)], Ts: graph.Timestamp(i + 1), Weight: 1})
	}
	upBytes := wire.Encode(&up)
	m["wire.upsert_encode_ns"] = metric{Unit: "ns", Samples: 100000, Value: perOp(100000, func(int) {
		sink += len(wire.Encode(&up))
	})}
	var into wire.Message
	m["wire.upsert_decode_ns"] = metric{Unit: "ns", Samples: 100000, Value: perOp(100000, func(int) {
		if err := wire.DecodeInto(upBytes, &into); err != nil {
			derr = err
		}
	})}
	if derr != nil {
		return fmt.Errorf("codec probe: %w", derr)
	}

	// sampling: the reservoir step on a full cell.
	rng := rand.New(rand.NewSource(p.seed))
	for _, s := range []struct {
		name     string
		strategy sampling.Strategy
	}{{"sampling.offer_topk_ns", sampling.TopK}, {"sampling.offer_random_ns", sampling.Random}} {
		r := sampling.NewReservoir(s.strategy, 25)
		m[s.name] = metric{Unit: "ns", Samples: 200000, Value: perOp(200000, func(i int) {
			if r.Offer(graph.VertexID(i), graph.Timestamp(i), 1, rng).Added {
				sink++
			}
		})}
	}

	if err := rpcProbe(m); err != nil {
		return err
	}
	if err := brokerProbe(payload, m); err != nil {
		return err
	}
	if err := workerProbes(d, m); err != nil {
		return err
	}
	if err := storeProbe(p.tmpDir, m); err != nil {
		return err
	}
	runtime.KeepAlive(sink)
	return nil
}

// rpcProbe measures one request/response over loopback with a 64-byte
// payload each way.
func rpcProbe(m map[string]metric) error {
	srv := rpc.NewServer()
	defer srv.Close()
	srv.Handle("bench.echo", func(req []byte) ([]byte, error) { return req, nil })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	c, err := rpc.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	req := make([]byte, 64)
	const n = 5000
	var before, after runtime.MemStats
	var callErr error
	call := func(int) {
		if _, err := c.Call("bench.echo", req, time.Second); err != nil {
			callErr = err
		}
	}
	rtt := perOp(n, call)
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		call(i)
	}
	runtime.ReadMemStats(&after)
	if callErr != nil {
		return fmt.Errorf("rpc probe: %w", callErr)
	}
	m["rpc.echo_rtt_us"] = metric{Value: rtt / 1e3, Unit: "us", Samples: n}
	m["rpc.echo_allocs_per_op"] = metric{Value: float64(after.Mallocs-before.Mallocs) / n, Unit: "count", Samples: n}
	return nil
}

// brokerProbe measures the in-process broker: append to and poll from one
// partition, no RPC.
func brokerProbe(payload []byte, m map[string]metric) error {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	topic, err := b.OpenTopic("bench.local", 1)
	if err != nil {
		return err
	}
	const n = 100000
	m["mq.append_local_ns"] = metric{Unit: "ns", Samples: n, Value: perOp(n, func(i int) {
		if _, aerr := topic.Append(0, uint64(i), payload); aerr != nil {
			err = aerr
		}
	})}
	if err != nil {
		return fmt.Errorf("broker probe: %w", err)
	}
	cur := topic.OpenConsumer(0, 0)
	polled := 0
	start := time.Now()
	for polled < n {
		recs, err := cur.Poll(512, time.Second)
		if err != nil {
			return fmt.Errorf("broker probe: %w", err)
		}
		polled += len(recs)
	}
	m["mq.poll_ns_per_rec"] = metric{Value: float64(time.Since(start)) / float64(polled), Unit: "ns", Samples: polled}
	return nil
}

// workerProbes runs one sampling worker and then one serving worker alone
// on a private in-process broker: the sampler drains a pre-filled updates
// topic, and the serving worker replays the sample queue that left behind.
// Neither waits on the other, so sampler.update_us and serving.apply_us are
// service times, not freshness.
func workerProbes(d *dataset, m map[string]metric) error {
	b := mq.NewBroker(mq.Options{})
	defer b.Close()
	updates, err := b.OpenTopic(wire.TopicUpdates, 1)
	if err != nil {
		return err
	}
	n := 0
	for _, u := range d.preload {
		if u.Kind == graph.UpdateEdge && !d.inQuery(u.Edge.Type) {
			continue // the frontend would not have routed it
		}
		key := uint64(u.Edge.Src)
		if u.Kind == graph.UpdateVertex {
			key = uint64(u.Vertex.ID)
		}
		if _, err := updates.Append(0, key, codec.EncodeUpdate(u)); err != nil {
			return err
		}
		if n++; n == 10000 {
			break
		}
	}

	sw, err := sampler.New(sampler.Config{
		ID: 0, NumSamplers: 1, NumServers: 1, Plans: d.cfg.Plans, Schema: d.cfg.Schema, Broker: b,
	})
	if err != nil {
		return err
	}
	start := time.Now()
	sw.Start()
	err = waitFor(time.Minute, 200*time.Microsecond, func() (bool, error) {
		st := sw.Stats()
		return st.UpdatesProcessed == int64(n) && sw.Lag() == 0 && sw.SubsLag() == 0 && st.SamplingDepth == 0 && st.PublishDepth == 0, nil
	})
	took := time.Since(start)
	sw.Stop()
	if err != nil {
		return fmt.Errorf("sampler probe: %w", err)
	}
	m["sampler.update_us"] = metric{Value: float64(took) / 1e3 / float64(n), Unit: "us", Samples: n}

	vw, err := serving.New(serving.Config{ID: 0, NumServers: 1, Plans: d.cfg.Plans, Broker: b})
	if err != nil {
		return err
	}
	start = time.Now()
	vw.Start()
	err = waitFor(time.Minute, 200*time.Microsecond, func() (bool, error) {
		return vw.Lag() == 0 && vw.Stats().UpdateDepth == 0, nil
	})
	took = time.Since(start)
	applied := vw.Stats().Applied
	vw.Stop()
	if err != nil {
		return fmt.Errorf("serving apply probe: %w", err)
	}
	if applied == 0 {
		return fmt.Errorf("serving apply probe: sample queue was empty")
	}
	m["serving.apply_us"] = metric{Value: float64(took) / 1e3 / float64(applied), Unit: "us", Samples: int(applied)}
	return nil
}

// waitFor polls cond until it has held on three consecutive probes — the one
// statement of what "the pipeline is idle" takes, for the child, the traced
// deployment and the standalone workers alike. An error from cond ends the
// wait.
func waitFor(timeout, every time.Duration, cond func() (bool, error)) error {
	deadline := time.Now().Add(timeout)
	for stable := 0; time.Now().Before(deadline); time.Sleep(every) {
		ok, err := cond()
		if err != nil {
			return err
		}
		if !ok {
			stable = 0
		} else if stable++; stable >= 3 {
			return nil
		}
	}
	return fmt.Errorf("condition not reached after %v", timeout)
}

// storeProbe measures the cache store with serving-sized entries: the
// memory tier, and reads that have to go to a flushed run on disk.
func storeProbe(tmpDir string, m map[string]metric) error {
	const n = 20000
	// Keys shaped like the serving cache's (prefix, hop, vertex), built ahead
	// so the probes time the store and not the key construction.
	keys := make([][]byte, n+n/10+1)
	for i := range keys {
		keys[i] = make([]byte, 13)
		keys[i][0] = 's'
		binary.BigEndian.PutUint64(keys[i][5:], uint64(i))
	}
	key := func(i int) []byte { return keys[i] }
	val := make([]byte, 200)

	mem, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		return err
	}
	defer mem.Close()
	m["kvstore.put_mem_ns"] = metric{Unit: "ns", Samples: n, Value: perOp(n, func(i int) {
		if perr := mem.Put(key(i), val); perr != nil {
			err = perr
		}
	})}
	m["kvstore.get_mem_ns"] = metric{Unit: "ns", Samples: n, Value: perOp(n, func(i int) {
		if _, _, gerr := mem.Get(key(i)); gerr != nil {
			err = gerr
		}
	})}
	if err != nil {
		return fmt.Errorf("kvstore probe: %w", err)
	}

	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(tmpDir, "kvstore-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	disk, err := kvstore.Open(kvstore.Options{Dir: dir})
	if err != nil {
		return err
	}
	defer disk.Close()
	for i := 0; i < n; i++ {
		if err := disk.Put(key(i), val); err != nil {
			return fmt.Errorf("kvstore probe: %w", err)
		}
	}
	if err := disk.Flush(); err != nil {
		return fmt.Errorf("kvstore probe: %w", err)
	}
	m["kvstore.get_run_ns"] = metric{Unit: "ns", Samples: n, Value: perOp(n, func(i int) {
		if _, ok, gerr := disk.Get(key(i)); gerr != nil || !ok {
			err = fmt.Errorf("get %d from run: ok=%v err=%v", i, ok, gerr)
		}
	})}
	if err != nil {
		return fmt.Errorf("kvstore probe: %w", err)
	}
	return nil
}
