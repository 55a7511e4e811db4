package serving

import (
	"bytes"
	"fmt"
	"io"

	"helios/internal/codec"
	"helios/internal/fsx"
)

// Serving-cache snapshots: the serving worker's counterpart of the
// sampler's checkpoint (PR 4), extending the same crash-safe
// temp+fsync+rename discipline (now shared via fsx) to the sample/feature
// cache. A snapshot pins the worker's sample-queue offset *before* dumping
// the cache, so restart = restore + replay of the tail past the pin — a
// few seconds of records instead of the partition's whole history. Replay
// over restored state is idempotent: cache messages are absolute
// puts/deletes, so re-applying the overlap converges to the same cache. The
// image holds one key/value record per cell, in the spill tier's value form
// (cache.go).

const snapshotMagic = "HELIOS-SEW-v1"

// Snapshot writes the cache image to out. Call it on a live (or at least
// not yet stopped) worker; the image is consistent-enough under concurrent
// applies because the offset pin and update-pool barrier happen first —
// any message racing the dump is at an offset at or past the pin and gets
// replayed on restore.
func (w *Worker) Snapshot(out io.Writer) error {
	// Pin, then barrier, then dump. The poll loop advances consumed after
	// messages are merely *enqueued* to the async update pool, so the pin
	// alone is not a replay floor — a message below it could still be
	// sitting in a mailbox when the dump runs, and restore would skip it
	// forever. The barrier closes that window: it is sent after the pin and
	// rides the same FIFO mailboxes, so by the time every update actor acks
	// it, every message enqueued before the pin is applied and lands in the
	// dump. Messages racing the dump are at or past the pin and get
	// replayed on restore (at-least-once, same as the sampler checkpoint
	// contract). lifeMu covers only the sends — Stop cannot close the pool
	// mid-send; the acks are collected lock-free afterwards (a racing
	// Close drains queued barriers before the actors exit, so every ack
	// still arrives).
	w.lifeMu.Lock()
	pin := w.consumed.Load()
	barriers := 0
	var done chan struct{}
	if w.started {
		barriers = w.updatePool.Workers()
		done = make(chan struct{}, barriers)
		for i := 0; i < barriers; i++ {
			w.updatePool.SendTo(i, cacheUpdate{barrier: done})
		}
	}
	w.lifeMu.Unlock()
	for i := 0; i < barriers; i++ {
		<-done
	}
	cw := codec.NewWriter(1 << 16)
	if err := w.cache.snapshot(cw, pin); err != nil {
		return err
	}
	//lint:allow faultcover reason=SnapshotFile hands this an in-memory buffer; the file write behind it carries the serving.snapshot.write hook in fsx.WriteFileAtomic
	_, err := out.Write(cw.Bytes())
	return err
}

// SnapshotFile writes the snapshot to path crash-safely. The faultpoint
// "serving.snapshot.write" simulates a crash mid-write (a torn .tmp that
// Restore never opens).
func (w *Worker) SnapshotFile(path string) error {
	var buf bytes.Buffer
	if err := w.Snapshot(&buf); err != nil {
		return err
	}
	return fsx.WriteFileAtomic(path, buf.Bytes(), "serving.snapshot.write")
}

// Restore loads a snapshot into a worker that has not been started: the
// cells land in the cache and the worker's sample-queue consumer
// will open at the pinned offset instead of zero.
func (w *Worker) Restore(in io.Reader) error {
	w.lifeMu.Lock()
	started := w.started
	w.lifeMu.Unlock()
	if started {
		return fmt.Errorf("serving: restore requires a stopped worker")
	}
	data, err := io.ReadAll(in)
	if err != nil {
		return err
	}
	offset, err := w.cache.restore(data)
	if err != nil {
		return err
	}
	w.startOffset = offset
	w.consumed.Store(offset)
	return nil
}

// snapshot appends the image: the magic, the pinned offset, one key/value
// record per cell (typed tier, then spill tier), and the end tag.
func (c *cache) snapshot(cw *codec.Writer, pin int64) error {
	cw.String(snapshotMagic)
	cw.Varint(pin)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		dumpTable(cw, sh.samples)
		dumpTable(cw, sh.features)
		sh.mu.RUnlock()
	}
	if c.spill != nil {
		err := c.spill.Range(func(k, v []byte) bool {
			cw.Byte(1)
			cw.Bytes32(k)
			cw.Bytes32(v)
			return true
		})
		if err != nil {
			return err
		}
	}
	cw.Byte(0)
	return nil
}

func dumpTable[K comparable, C cell](cw *codec.Writer, m map[K]C) {
	for k, cell := range m {
		cw.Byte(1)
		cw.Bytes32(spillKey(k))
		cw.Bytes32(cell.value())
	}
}

// restore loads an image, each value decoded straight into its cell, and
// returns the pinned offset. A key of neither table's layout is corrupt.
func (c *cache) restore(data []byte) (int64, error) {
	r := codec.NewReader(data)
	if r.String() != snapshotMagic {
		return 0, fmt.Errorf("serving: bad snapshot magic")
	}
	offset := r.Varint()
	for {
		switch r.Byte() {
		case 0: // the end tag, or a truncated image: Finish tells which
			return offset, r.Finish()
		case 1:
			k, v := r.Bytes32(), r.Bytes32()
			if err := r.Err(); err != nil {
				return 0, fmt.Errorf("serving: truncated snapshot: %w", err)
			}
			if err := c.load(k, v); err != nil {
				return 0, fmt.Errorf("serving: corrupt snapshot entry %x: %w", k, err)
			}
		default:
			return 0, fmt.Errorf("serving: corrupt snapshot tag")
		}
	}
}

func (c *cache) load(k, v []byte) error {
	hop, vtx, sample, ok := parseKey(k)
	if !ok {
		return fmt.Errorf("unknown key layout")
	}
	if sample {
		cell, err := decodeSampleCell(v)
		if err != nil {
			return err
		}
		return c.setSamples(cellKey{hop, vtx}, cell)
	}
	cell, err := decodeFeatureCell(v)
	if err != nil {
		return err
	}
	return c.setFeature(vtx, cell)
}

// RestoreFile loads a snapshot from path. The faultpoint
// "serving.snapshot.read" models an image unreadable after a crash.
func (w *Worker) RestoreFile(path string) error {
	data, err := fsx.ReadFile(path, "serving.snapshot.read")
	if err != nil {
		return err
	}
	return w.Restore(bytes.NewReader(data))
}

// ReplayFloor reports the sample-queue offset a restored (not yet
// started) worker will resume consuming from — the warm-restart pin.
func (w *Worker) ReplayFloor() int64 { return w.startOffset }
