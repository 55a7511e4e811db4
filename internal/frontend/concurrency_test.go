package frontend_test

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"helios/internal/cluster"
)

// BenchmarkGatewayConcurrency drives closed-loop GET /sample clients, each
// on its own transport and so its own connection, against the loopback TCP
// topology, and reports what the window-and-combine sample path gives at
// each client count: samples/s and rpc frames per sample (1 while every
// call goes direct, lower as calls queue and leave combined). Plan 8 is
// the one-hop query, where per-request fixed cost dominates; plan 25x10
// the two-hop one.
//
//	go test ./internal/frontend -run '^$' -bench GatewayConcurrency -benchtime 2s
func BenchmarkGatewayConcurrency(b *testing.B) {
	c := bootGatewayGraph(b, cluster.Options{})
	gateway := "http://" + c.Frontend.Addr
	for _, plan := range []struct {
		name string
		q    int
	}{{"8", 1}, {"25x10", 0}} {
		for _, clients := range []int{2, 16, 64} {
			b.Run(fmt.Sprintf("plan=%s/clients=%d", plan.name, clients), func(b *testing.B) {
				var next atomic.Int64
				var wg sync.WaitGroup
				frames := c.Frontend.Node.SampleCalls()
				start := time.Now()
				for i := 0; i < clients; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						client := &http.Client{Transport: &http.Transport{}}
						defer client.CloseIdleConnections()
						for n := next.Add(1); n <= int64(b.N); n = next.Add(1) {
							url := gateway + "/sample?q=" + strconv.Itoa(plan.q) + "&seed=" + strconv.Itoa(1+int(n)%gatewayUsers)
							resp, err := client.Get(url)
							if err != nil {
								b.Error(err)
								return
							}
							io.Copy(io.Discard, resp.Body)
							resp.Body.Close()
							if resp.StatusCode != http.StatusOK {
								b.Errorf("GET %s: %s", url, resp.Status)
								return
							}
						}
					}()
				}
				wg.Wait()
				elapsed := time.Since(start)
				b.ReportMetric(float64(b.N)/elapsed.Seconds(), "samples/s")
				b.ReportMetric(float64(c.Frontend.Node.SampleCalls()-frames)/float64(b.N), "frames/sample")
			})
		}
	}
}
