package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"helios/internal/frontend"
	"helios/internal/graph"
	"helios/internal/mq"
)

// conn is one generator connection to the gateway: a keep-alive HTTP client
// that never opens a second socket, plus reusable buffers.
type conn struct {
	http *http.Client
	base string
	body bytes.Buffer
	resp sampleResponse
}

func newConn(gateway string) *conn {
	return &conn{
		base: "http://" + gateway,
		http: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
			},
		},
	}
}

func (c *conn) close() { c.http.CloseIdleConnections() }

// sample issues GET /sample for seed and returns the decoded body (valid
// until the next call) with the time from sending the request to reading the
// last byte of the response. Decoding is the generator's cost, not the
// system's, so it happens after the clock stops.
func (c *conn) sample(seed graph.VertexID) (*sampleResponse, time.Duration, error) {
	url := c.base + "/sample?q=0&seed=" + strconv.FormatUint(uint64(seed), 10)
	start := time.Now()
	resp, err := c.http.Get(url)
	if err != nil {
		return nil, 0, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("GET /sample: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(c.body.Bytes()))
	}
	c.resp = sampleResponse{Layers: c.resp.Layers[:0], Edges: c.resp.Edges[:0], Features: c.resp.Features[:0]}
	if err := json.Unmarshal(c.body.Bytes(), &c.resp); err != nil {
		return nil, 0, fmt.Errorf("GET /sample: %w", err)
	}
	return &c.resp, lat, nil
}

// postEdge sends one edge update to POST /ingest/edge.
func (c *conn) postEdge(e graph.Edge, typeName string) error {
	c.body.Reset()
	fmt.Fprintf(&c.body, `{"src":%d,"dst":%d,"type":%q,"ts":%d,"weight":%g}`, e.Src, e.Dst, typeName, e.Ts, e.Weight)
	resp, err := c.http.Post(c.base+"/ingest/edge", "application/json", bytes.NewReader(c.body.Bytes()))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("POST /ingest/edge: HTTP %d", resp.StatusCode)
	}
	return nil
}

// producer is the stream path: the routing library the frontend binary
// runs, used from the generator over its own connection to the child's
// broker, which is what helios-replay does with its own copy of the routing.
type producer struct {
	bus *mq.RemoteBroker
	fe  *frontend.Frontend
}

func newProducer(d *dataset, addr sutReady) (*producer, error) {
	bus, err := mq.DialBroker(addr.Broker, 0)
	if err != nil {
		return nil, err
	}
	fe, err := frontend.New(d.cfg, bus, addr.Serving)
	if err != nil {
		bus.Close()
		return nil, err
	}
	return &producer{bus: bus, fe: fe}, nil
}

func (p *producer) close() {
	p.fe.Close()
	p.bus.Close()
}

// marker is an update whose arrival in query results is timed: an edge from
// a seed with a timestamp newer than every earlier one, so TopK must admit
// it.
type marker struct {
	seed graph.VertexID
	ts   graph.Timestamp
	// due is when the open-loop schedule wanted it sent; visibility latency
	// counts from here, so generator lateness and ingest queueing both show.
	due time.Time
}

// markerLostAfter is how long a marker may stay unseen before it counts as a
// failed operation: a quarter of the measured phase — 1 s of the default 4 s
// trial — so a lost marker is counted by the phase that sent it, and at most
// 5 s. It does not shrink below a second: only the smoke test runs phases
// that short, and under `go test -race` on two cores visibility is ~100 ms
// at the median (2.5 ms uninstrumented), where a quarter of a 0.5 s phase
// would call slow markers lost. There closeMarkers' half-seen rule is what
// still fails an empty sample.
func markerLostAfter(phase time.Duration) time.Duration {
	return min(5*time.Second, max(phase/4, time.Second))
}

// settleTime is how long after a seed's last marker was seen its result may
// still be incomplete (the new neighbour's own subtree materializes through
// one more subscription round) — exact comparison waits this long.
const settleTime = time.Second

// phase is the state the two connections of a measured phase share.
type phase struct {
	def   workloadDef
	data  *dataset
	start time.Time
	end   time.Time

	// lost is markerLostAfter(end - start).
	lost time.Duration

	mu  sync.Mutex
	ref *refGraph
	// nextTs numbers updates as they are sent, continuing the preload's
	// timestamps, so every update is newer than all earlier ones.
	nextTs      graph.Timestamp
	outstanding []marker
	// touched is when each seed last had a marker sent or seen.
	touched map[graph.VertexID]time.Time
	// Every marker sent ends up in exactly one of: visibility (seen, ms),
	// markerFail (unseen for lost) or markerLate (sent within lost of the
	// end and still unseen then: too young to call, in no figure).
	markers    int
	visibility []float64
	markerFail int64
	markerLate int
	firstErr   error
}

// fail records the first failure's cause for the report.
func (p *phase) fail(err error) {
	p.mu.Lock()
	if p.firstErr == nil {
		p.firstErr = err
	}
	p.mu.Unlock()
}

// client is one generator goroutine and its connection.
type client struct {
	p    *phase
	rng  *rand.Rand
	conn *conn
	prod *producer // stream path only

	queries bool
	aim     bool
	// updates is nil for a client that sends none.
	updates *schedule
	tail    []graph.Update

	attempted, failed int64
	lat, late         []float64 // ms
	// at[i] is when, from the start of the phase, the response timed in
	// lat[i] arrived.
	at        []time.Duration
	responses int
}

// schedule is an open-loop send plan: update i is due at start + i×interval
// whatever happened to the ones before it, so a stall makes the following
// updates late instead of silently lowering the rate.
type schedule struct {
	start    time.Time
	interval time.Duration
	sent     int
}

// nextDue is when the next unsent update should go out.
func (s *schedule) nextDue() time.Time {
	return s.start.Add(time.Duration(s.sent) * s.interval)
}

// take claims the next update for sending at now and returns its due time
// and how late it is.
func (s *schedule) take(now time.Time) (due time.Time, late time.Duration) {
	due = s.nextDue()
	s.sent++
	return due, now.Sub(due)
}

// backlog is how many updates were due before end but never sent.
func (s *schedule) backlog(end time.Time) int {
	due := int((end.Sub(s.start) + s.interval - 1) / s.interval)
	if due < s.sent {
		return 0
	}
	return due - s.sent
}

// run drives the connection until the phase ends: send every update that is
// due, then (for a query client) one query; an update-only client sleeps
// until its next update is due.
func (c *client) run() {
	end := c.p.end
	for {
		now := time.Now()
		if !now.Before(end) {
			return
		}
		if c.updates != nil {
			for !c.updates.nextDue().After(now) && c.updates.nextDue().Before(end) {
				c.update(now)
				now = time.Now()
			}
			if !c.queries {
				wait := time.Until(c.updates.nextDue())
				if until := time.Until(end); wait > until {
					wait = until
				}
				time.Sleep(wait)
				continue
			}
		}
		c.query()
	}
}

// update sends the next scheduled update: a marker at every markerEvery-th
// position, otherwise the next edge of the continuing stream.
func (c *client) update(now time.Time) {
	p := c.p
	due, late := c.updates.take(now)
	isMarker := c.updates.sent%p.def.markerEvery == 0
	c.late = append(c.late, float64(late)/1e6)
	var e graph.Edge
	if isMarker {
		e = graph.Edge{
			Src:  p.data.seeds[c.rng.Intn(len(p.data.seeds))],
			Dst:  p.data.targets[c.rng.Intn(len(p.data.targets))],
			Type: p.data.markerEdge, Weight: 1,
		}
	} else {
		e = c.tail[0].Edge
		c.tail = c.tail[1:]
	}
	// The reference learns the edge before the system does, so no response
	// can contain a relation the validity check has not heard of.
	p.mu.Lock()
	p.nextTs++
	e.Ts = p.nextTs
	p.ref.apply(graph.NewEdgeUpdate(e))
	if isMarker {
		p.outstanding = append(p.outstanding, marker{seed: e.Src, ts: e.Ts, due: due})
		p.markers++
		p.touched[e.Src] = due
	}
	p.mu.Unlock()

	c.attempted++
	var err error
	if p.def.path == viaStream {
		err = c.prod.fe.Ingest(graph.NewEdgeUpdate(e))
	} else {
		err = c.conn.postEdge(e, p.data.cfg.Schema.EdgeTypeName(e.Type))
	}
	if err != nil {
		c.failed++
		p.fail(err)
	}
}

// query issues one GET /sample, checks the response and looks for markers
// in it.
func (c *client) query() {
	p := c.p
	seed := p.data.seeds[c.rng.Intn(len(p.data.seeds))]
	if c.aim {
		// A marker that never shows holds the aim only until it is lost
		// (p.lost), and a lost marker fails the run: the markers queued
		// behind it are seen late, but never reported as a clean figure.
		p.mu.Lock()
		if len(p.outstanding) > 0 {
			seed = p.outstanding[0].seed
		}
		p.mu.Unlock()
	}
	c.attempted++
	resp, lat, err := c.conn.sample(seed)
	done := time.Now()
	if err != nil {
		c.failed++
		p.fail(err)
		return
	}
	c.responses++

	p.mu.Lock()
	p.observe(seed, resp, done)
	settled := p.def.exactEvery > 0 && c.responses%p.def.exactEvery == 0 && p.settled(seed, done)
	if settled {
		err = p.ref.checkExact(seed, resp)
	} else {
		err = p.ref.checkValid(seed, resp)
	}
	p.mu.Unlock()
	if err != nil {
		c.failed++
		p.fail(fmt.Errorf("oracle: %w", err))
		return
	}
	c.lat = append(c.lat, float64(lat)/1e6)
	c.at = append(c.at, done.Sub(p.start))
}

// observe resolves outstanding markers against a response for seed received
// at done, and expires markers nobody has seen for p.lost. Caller holds p.mu.
func (p *phase) observe(seed graph.VertexID, r *sampleResponse, done time.Time) {
	keep := p.outstanding[:0]
	for _, m := range p.outstanding {
		switch {
		case m.seed == seed && markerVisible(r, m.ts, p.ref.fanout[0]):
			p.visibility = append(p.visibility, float64(done.Sub(m.due))/1e6)
			p.touched[seed] = done
		case done.Sub(m.due) > p.lost:
			p.lose(m)
		default:
			keep = append(keep, m)
		}
	}
	p.outstanding = keep
}

// lose counts m as a failed operation. Caller holds p.mu.
func (p *phase) lose(m marker) {
	p.markerFail++
	if p.firstErr == nil {
		p.firstErr = fmt.Errorf("marker %d@%d not visible after %v", m.seed, m.ts, p.lost)
	}
}

// closeMarkers settles the markers still outstanding once both clients have
// stopped: one due more than p.lost before the end has had its time and is a
// failed operation; a younger one is only counted. It then reports whether
// visibility has the samples to be a figure at all — some, and no fewer than
// the markers that had their time and were lost: markers that reach no
// percentile must not make the percentile look good, and an empty sample
// reads 0 ms, the best value there is.
func (p *phase) closeMarkers() error {
	for _, m := range p.outstanding {
		if p.end.Sub(m.due) > p.lost {
			p.lose(m)
		} else {
			p.markerLate++
		}
	}
	p.outstanding = nil
	if seen := len(p.visibility); seen == 0 || int64(seen) < p.markerFail {
		return fmt.Errorf("%d of %d markers were seen in a response (%d lost, %d sent too late to call): too few to report visibility",
			seen, p.markers, p.markerFail, p.markerLate)
	}
	return nil
}

// settled reports whether seed's exact answer is knowable: no marker of its
// own is outstanding or was seen within settleTime. Caller holds p.mu.
func (p *phase) settled(seed graph.VertexID, now time.Time) bool {
	for _, m := range p.outstanding {
		if m.seed == seed {
			return false
		}
	}
	t, ok := p.touched[seed]
	return !ok || now.Sub(t) > settleTime
}

// markerVisible reports whether the first-hop relations of r show that the
// edge stamped ts has been applied: it is there, or the cell is full of
// edges newer than it (updates of one source apply in order, so a newer
// neighbour can only have displaced it after it was admitted).
func markerVisible(r *sampleResponse, ts graph.Timestamp, fanout int) bool {
	n := 0
	for _, e := range r.Edges {
		if e.Hop != 0 {
			continue
		}
		if e.Ts == int64(ts) {
			return true
		}
		if e.Ts > int64(ts) {
			n++
		}
	}
	return n >= fanout
}
