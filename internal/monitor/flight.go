package monitor

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"helios/internal/clock"
	"helios/internal/fsx"
)

// FlightRecorder persists capture documents to a bounded on-disk ring —
// the cluster's black box. GraphSnapShot's argument for persisting local
// state applies to telemetry too: the in-memory trace rings and cluster
// views die with the process that held them, which is exactly when an
// operator needs them. Each capture is written crash-safely the way
// sampler.CheckpointFile writes checkpoints (fsx.WriteFileAtomic): a crash
// mid-capture leaves a torn .tmp that List never reports, never a torn
// capture.
//
// Captures are named capture-<seq>-<reason>.json; seq is monotonic
// across process restarts (the recorder rescans the directory on open),
// so the ring survives coordinator redeploys.
type FlightRecorder struct {
	dir  string
	keep int
	clk  clock.Clock

	mu  sync.Mutex
	seq uint64
}

// Capture is one flight-recorder document: why it was taken, who was at
// fault, and the evidence — recent cluster views, the worst traces and
// slow-log lines the reporting workers shipped.
type Capture struct {
	// Reason is the trigger class: "slo_burn" or "worker_death".
	Reason string `json:"reason"`
	// CapturedNS is the capture time (unix nanos, collector clock).
	CapturedNS int64 `json:"captured_ns"`
	// Worker names the worker at fault (the burning reporter, or the one
	// that died).
	Worker string `json:"worker,omitempty"`
	// Partition is the hottest partition at capture time (-1 when the
	// cluster has no partition state yet).
	Partition int `json:"partition"`
	// SLO and BurnRateMilli identify the blown objective for slo_burn
	// captures.
	SLO           string `json:"slo,omitempty"`
	BurnRateMilli int64  `json:"burn_rate_milli,omitempty"`
	// WorstTrace is the slowest trace the offending worker reported.
	WorstTrace TraceSummary `json:"worst_trace"`
	// View is the cluster state at capture time; History holds the
	// trailing ring of earlier views (oldest first).
	View    ClusterView   `json:"view"`
	History []ClusterView `json:"history,omitempty"`
	// SlowLines are the offending worker's recent slow-log lines.
	SlowLines []string `json:"slow_lines,omitempty"`
}

// NewFlightRecorder opens (creating if needed) the capture ring at dir,
// retaining at most keep captures (0 defaults to 32). clk stamps capture
// times; nil defaults to the wall clock.
func NewFlightRecorder(dir string, keep int, clk clock.Clock) (*FlightRecorder, error) {
	if keep <= 0 {
		keep = 32
	}
	if clk == nil {
		clk = clock.Wall()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fr := &FlightRecorder{dir: dir, keep: keep, clk: clk}
	existing, err := fr.List()
	if err != nil {
		return nil, err
	}
	for _, path := range existing {
		if seq, _, ok := parseCaptureName(filepath.Base(path)); ok && seq > fr.seq {
			fr.seq = seq
		}
	}
	return fr, nil
}

// Record writes c to the ring, stamping CapturedNS, and returns the
// capture's path. Old captures beyond the retention bound are removed.
// The faultpoint "monitor.flight.write" simulates a crash mid-write:
// half the document lands in the temp file and the writer aborts with no
// cleanup — the torn .tmp is never listed as a capture.
func (fr *FlightRecorder) Record(c *Capture) (string, error) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	c.CapturedNS = fr.clk.Now().UnixNano()
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return "", err
	}
	data = append(data, '\n')

	fr.seq++
	path := filepath.Join(fr.dir, captureName(fr.seq, c.Reason))
	if err := fsx.WriteFileAtomic(path, data, "monitor.flight.write"); err != nil {
		return "", err
	}
	return path, fr.prune()
}

// prune removes the oldest captures beyond the retention bound. Caller
// holds fr.mu.
func (fr *FlightRecorder) prune() error {
	paths, err := fr.list()
	if err != nil {
		return err
	}
	for len(paths) > fr.keep {
		if err := os.Remove(paths[0]); err != nil {
			return err
		}
		paths = paths[1:]
	}
	return nil
}

// List returns the retained capture paths, oldest first. Torn .tmp files
// from interrupted writes are never included.
func (fr *FlightRecorder) List() ([]string, error) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.list()
}

func (fr *FlightRecorder) list() ([]string, error) {
	entries, err := os.ReadDir(fr.dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if _, _, ok := parseCaptureName(e.Name()); ok {
			out = append(out, filepath.Join(fr.dir, e.Name()))
		}
	}
	// Zero-padded sequence numbers make the lexicographic order the
	// capture order.
	sort.Strings(out)
	return out, nil
}

// ReadCapture loads one capture document from disk.
func ReadCapture(path string) (*Capture, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c := &Capture{}
	if err := json.Unmarshal(data, c); err != nil {
		return nil, fmt.Errorf("monitor: capture %s: %w", filepath.Base(path), err)
	}
	return c, nil
}

// captureName renders capture-<seq>-<reason>.json with the sequence
// zero-padded so lexicographic directory order is capture order, and the
// reason sanitized to a filename-safe slug.
func captureName(seq uint64, reason string) string {
	var slug strings.Builder
	for i := 0; i < len(reason); i++ {
		c := reason[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '_', c == '-':
			slug.WriteByte(c)
		case c >= 'A' && c <= 'Z':
			slug.WriteByte(c - 'A' + 'a')
		default:
			slug.WriteByte('_')
		}
	}
	return fmt.Sprintf("capture-%08d-%s.json", seq, slug.String())
}

// parseCaptureName inverts captureName; ok is false for anything that is
// not a finished capture file (torn .tmp files, stray entries).
func parseCaptureName(name string) (seq uint64, reason string, ok bool) {
	rest, found := strings.CutPrefix(name, "capture-")
	if !found {
		return 0, "", false
	}
	rest, found = strings.CutSuffix(rest, ".json")
	if !found {
		return 0, "", false
	}
	seqStr, reason, found := strings.Cut(rest, "-")
	if !found {
		return 0, "", false
	}
	seq, err := strconv.ParseUint(seqStr, 10, 64)
	if err != nil {
		return 0, "", false
	}
	return seq, reason, true
}
