package sampler

import (
	"fmt"
	"testing"

	"helios/internal/mq"
)

// BenchmarkPublishTurn is the publish layer's own cost (ROADMAP 1b): one
// publish turn over a drained run of 1, 8 and 256 messages, against the
// in-process broker and against the same broker behind loopback RPC (what
// a deployed sampler pays). ns/record and allocs/record are per message of
// the run, so the amortization of the per-append cost reads straight off
// the three sizes (allocations are process-wide, so the remote figure
// includes the broker's handler). Every message rewrites its own cell, so
// nothing is conflated and every record is appended.
//
//	go test -run '^$' -bench PublishTurn -benchmem ./internal/sampler
func BenchmarkPublishTurn(b *testing.B) {
	for _, remote := range []bool{false, true} {
		for _, size := range []int{1, 8, 256} {
			name := fmt.Sprintf("bus=local/run=%d", size)
			if remote {
				name = fmt.Sprintf("bus=remote/run=%d", size)
			}
			b.Run(name, func(b *testing.B) { benchPublishTurn(b, remote, size) })
		}
	}
}

func benchPublishTurn(b *testing.B, remote bool, size int) {
	// Retention keeps the broker's memory flat however long the run.
	broker := mq.NewBroker(mq.Options{RetainRecords: 1 << 14})
	defer broker.Close()
	var bus mq.Bus = broker
	if remote {
		bus = dialLoopback(b, broker)
	}
	s, _ := testSchema()
	w, err := New(Config{ID: 0, NumSamplers: 1, NumServers: 1, Schema: s, Broker: bus})
	if err != nil {
		b.Fatal(err)
	}
	// The turn may blank payloads it conflates, never here (distinct
	// cells), so one template run serves every iteration; the broker never
	// writes to a payload it was handed.
	template := make([]outMsg, size)
	for i := range template {
		template[i] = upsertFor(w, 0, uint64(i))
	}
	run := make([]outMsg, size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(run, template)
		w.publishTurn(0, run)
	}
	b.StopTimer()
	if st := w.Stats(); st.PublishDropped != 0 || st.PublishConflated != 0 {
		b.Fatalf("bench turn dropped %d and conflated %d records", st.PublishDropped, st.PublishConflated)
	}
	records := float64(b.N) * float64(size)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/records, "ns/record")
	b.ReportMetric(float64(testing.AllocsPerRun(20, func() {
		copy(run, template)
		w.publishTurn(0, run)
	}))/float64(size), "allocs/record")
}
