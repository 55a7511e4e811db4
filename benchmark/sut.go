package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"syscall"
	"time"

	"helios/internal/deploy"
)

// sutStats is the harness-owned view of the system under test, served by the
// child at /bench/stats. Everything in it comes from the components' public
// accessors (Worker.Stats, Lag), the Go runtime and getrusage.
type sutStats struct {
	// CPUMicros is the child's user+system CPU time so far.
	CPUMicros int64 `json:"cpu_us"`
	// Backlog is the sum of every consumer lag (updates, subscription and
	// sample queues); Depth the sum of every actor pool's queued plus
	// in-flight messages. Both zero means the pipeline is idle.
	Backlog int64 `json:"backlog"`
	Depth   int64 `json:"depth"`
	// BacklogMax is the largest Backlog the child's 1 Hz poll has seen since
	// the previous stats read.
	BacklogMax int64 `json:"backlog_max"`

	Served        int64 `json:"served"`
	Applied       int64 `json:"applied"`
	SampleHits    int64 `json:"sample_hits"`
	SampleMisses  int64 `json:"sample_misses"`
	FeatureHits   int64 `json:"feature_hits"`
	FeatureMisses int64 `json:"feature_misses"`
	CacheBytes    int64 `json:"cache_bytes"`
	CacheEntries  int64 `json:"cache_entries"`

	UpdatesProcessed int64 `json:"updates_processed"`
	EdgesOffered     int64 `json:"edges_offered"`
	Admissions       int64 `json:"admissions"`
	// SamplerMsgs counts what the samplers published: sample snapshots,
	// features and subscription deltas.
	SamplerMsgs int64 `json:"sampler_msgs"`

	Mallocs      uint64 `json:"mallocs"`
	TotalAlloc   uint64 `json:"total_alloc"`
	NumGC        uint32 `json:"num_gc"`
	PauseTotalNs uint64 `json:"pause_total_ns"`
	HeapAlloc    uint64 `json:"heap_alloc"`
}

// idle reports whether nothing is queued or in flight anywhere in the
// update pipeline.
func (s sutStats) idle() bool { return s.Backlog == 0 && s.Depth == 0 }

// pipeline reads the queue state of every worker.
func (t *topology) pipeline() (backlog, depth int64) {
	for _, w := range t.samplers {
		st := w.Stats()
		backlog += w.Lag() + w.SubsLag()
		depth += int64(st.SamplingDepth + st.PublishDepth)
	}
	for _, w := range t.servers {
		st := w.Stats()
		backlog += w.Lag()
		depth += int64(st.UpdateDepth + st.ServeDepth)
	}
	return backlog, depth
}

// stats snapshots the deployment's counters.
func (t *topology) stats() sutStats {
	var s sutStats
	s.CPUMicros = processCPUMicros()
	s.Backlog, s.Depth = t.pipeline()
	for _, w := range t.samplers {
		st := w.Stats()
		s.UpdatesProcessed += st.UpdatesProcessed
		s.EdgesOffered += st.EdgesOffered
		s.Admissions += st.Admissions
		s.SamplerMsgs += st.SnapshotsSent + st.FeaturesSent + st.SubDeltasSent
	}
	for _, w := range t.servers {
		st := w.Stats()
		s.Served += st.Served
		s.Applied += st.Applied
		s.SampleHits += st.SampleHits
		s.SampleMisses += st.SampleMisses
		s.FeatureHits += st.FeatureHits
		s.FeatureMisses += st.FeatureMisses
		s.CacheBytes += st.CacheBytes
		if n, err := w.CacheEntries(); err == nil {
			s.CacheEntries += int64(n)
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.Mallocs, s.TotalAlloc = m.Mallocs, m.TotalAlloc
	s.NumGC, s.PauseTotalNs, s.HeapAlloc = m.NumGC, m.PauseTotalNs, m.HeapAlloc
	return s
}

// processCPUMicros returns this process's user+system CPU time.
func processCPUMicros() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Sec*1e6 + int64(ru.Utime.Usec) + ru.Stime.Sec*1e6 + int64(ru.Stime.Usec)
}

// sutReady is the one line the child prints once every listener is up.
type sutReady struct {
	Gateway string   `json:"gateway"`
	Broker  string   `json:"broker"`
	Serving []string `json:"serving"`
	Control string   `json:"control"`
}

// sutMain is the SUT child: it boots the deployment, serves /bench/stats on
// a harness-owned loopback listener, announces its addresses on stdout and
// runs until stdin closes — which also happens when the parent dies, so a
// killed generator never leaves a child behind.
func sutMain(args []string) error {
	fs := flag.NewFlagSet("sut", flag.ContinueOnError)
	config := fs.String("config", "", "deployment configuration as inline JSON")
	pprofDir := fs.String("pprof", "", "write cpu/heap/mutex profiles into this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := deploy.Parse([]byte(*config))
	if err != nil {
		return err
	}
	if *pprofDir != "" {
		stop, err := startProfiles(*pprofDir)
		if err != nil {
			return err
		}
		defer stop()
	}
	t, err := bootTopology(cfg)
	if err != nil {
		return err
	}
	defer t.Close()

	// The 1 Hz backlog poll runs here, not in the generator, so the
	// generator keeps to its two goroutines.
	var backlogMax atomic.Int64
	pollStop := make(chan struct{})
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-pollStop:
				return
			case <-tick.C:
				if b, _ := t.pipeline(); b > backlogMax.Load() {
					backlogMax.Store(b)
				}
			}
		}
	}()
	defer func() { close(pollStop); <-pollDone }()

	mux := http.NewServeMux()
	mux.HandleFunc("GET /bench/stats", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("gc") == "1" {
			runtime.GC()
		}
		s := t.stats()
		if s.BacklogMax = backlogMax.Swap(0); s.Backlog > s.BacklogMax {
			s.BacklogMax = s.Backlog
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(s)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctl := &http.Server{Handler: mux}
	ctlDone := make(chan struct{})
	go func() {
		defer close(ctlDone)
		ctl.Serve(ln)
	}()
	defer func() { ctl.Close(); <-ctlDone }()

	ready, err := json.Marshal(sutReady{
		Gateway: t.gatewayAddr, Broker: t.brokerAddr, Serving: t.servingAddrs, Control: ln.Addr().String(),
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", ready)
	_, err = io.Copy(io.Discard, os.Stdin) // returns at EOF: the parent is done with us
	return err
}

// startProfiles begins a CPU profile and returns the function that finishes
// it and writes the heap and mutex profiles beside it.
func startProfiles(dir string) (func(), error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cpu, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	runtime.SetMutexProfileFraction(5)
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		cpu.Close()
		for _, name := range []string{"heap", "mutex"} {
			f, err := os.Create(filepath.Join(dir, name+".pprof"))
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark sut:", err)
				continue
			}
			if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark sut:", err)
			}
			f.Close()
		}
	}, nil
}

// child is the generator's handle on one SUT process.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	addr  sutReady
	// started is when the process was launched (setup_s counts from here).
	started time.Time
	ctl     *http.Client
}

// startChild re-executes this binary as `sut` and waits for its ready line.
func startChild(cfgJSON []byte, pprofDir string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	argv := []string{"sut", "-config", string(cfgJSON)}
	if pprofDir != "" {
		argv = append(argv, "-pprof", pprofDir)
	}
	cmd := exec.Command(exe, argv...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, stdin: stdin, started: time.Now(), ctl: &http.Client{Timeout: 30 * time.Second}}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	line, err := bufio.NewReader(stdout).ReadBytes('\n')
	if err == nil {
		err = json.Unmarshal(line, &c.addr)
	}
	if err != nil {
		c.stop()
		return nil, fmt.Errorf("sut child did not become ready: %w", err)
	}
	return c, nil
}

// stop closes the child's stdin and waits for it to exit.
func (c *child) stop() error {
	c.stdin.Close()
	err := c.cmd.Wait()
	c.ctl.CloseIdleConnections()
	return err
}

// stats reads /bench/stats; gc forces a collection first so HeapAlloc is
// the live heap.
func (c *child) stats(gc bool) (sutStats, error) {
	url := "http://" + c.addr.Control + "/bench/stats"
	if gc {
		url += "?gc=1"
	}
	var s sutStats
	resp, err := c.ctl.Get(url)
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("sut stats: HTTP %d", resp.StatusCode)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// quiesce waits until the pipeline is idle (waitFor's three consecutive
// probes) and returns the instant of the first probe of that idle stretch,
// which is when ingest_kups stops its clock.
func (c *child) quiesce(timeout time.Duration) (time.Time, error) {
	var first time.Time
	wasIdle := false
	err := waitFor(timeout, 2*time.Millisecond, func() (bool, error) {
		probed := time.Now()
		s, err := c.stats(false)
		if err != nil {
			return false, err
		}
		if s.idle() && !wasIdle {
			first = probed
		}
		wasIdle = s.idle()
		return wasIdle, nil
	})
	if err != nil {
		return time.Time{}, fmt.Errorf("pipeline quiesce: %w", err)
	}
	return first, nil
}
