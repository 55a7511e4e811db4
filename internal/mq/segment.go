package mq

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"helios/internal/codec"
	"helios/internal/faultpoint"
)

// segment is the disk backing of one partition: one append-only file, a
// header and length-framed records. On topic creation an existing segment
// is replayed into memory, giving the broker Kafka-style restart durability.
type segment struct {
	f       *os.File
	w       *bufio.Writer
	pending int
	policy  FsyncPolicy
}

// syncEvery is the appends between fsyncs under FsyncInterval.
const syncEvery = 4096

// segmentHeader opens every segment file: a magic and the frame layout's
// version. Version 1 frames are offset, key and value; files from before
// the header also carried an append timestamp.
const segmentHeader = "HSEG\x01"

// segmentPath keeps one file per topic/partition.
func segmentPath(dir, topic string, idx int) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%04d.log", topic, idx))
}

// openSegment replays any existing log into the partition and opens the
// file for appends; a file in another layout is refused, never replayed.
func (p *partition) openSegment(dir string) error {
	// Restart-replay boundary: a fault here models a segment that cannot
	// be reopened after a crash (missing dir, unreadable log).
	if err := faultpoint.Inject("mq.segment.open"); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("mq: create segment dir: %w", err)
	}
	path := segmentPath(dir, p.topic, p.idx)
	data, err := os.ReadFile(path)
	if err == nil && len(data) > 0 {
		if !bytes.HasPrefix(data, []byte(segmentHeader)) {
			return fmt.Errorf("mq: segment %s lacks the layout %d header %q: written by another version", path, segmentHeader[4], segmentHeader)
		}
		p.replay(data[len(segmentHeader):])
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("mq: open segment: %w", err)
	}
	p.seg = &segment{f: f, w: bufio.NewWriterSize(f, 1<<16), policy: p.broker.opts.Fsync}
	if len(data) == 0 {
		_, err = p.seg.w.WriteString(segmentHeader)
	}
	return err
}

// replay loads framed records from data, tolerating a truncated tail (a
// crash mid-append loses at most the partial record, like Kafka's log
// recovery) and offset rewinds: a frame whose offset is at or below an
// already-replayed one supersedes everything from that offset on. Rewinds
// appear when a failed append or batch was retried (the orphaned first
// attempt never became visible), and when a demoted leader's abandoned
// tail was overwritten by the new leader's stream — in both cases the
// later bytes are the authoritative log. A frame that skips offsets ahead
// starts the log over at its own.
//
// The first pass keeps where each surviving frame starts, so a run of
// rewinds costs the log nothing; the second feeds the survivors to it.
func (p *partition) replay(data []byte) {
	var starts []int // starts[i] is where the frame of offset first+i begins
	var first int64
	var rd codec.Reader
	for rd.Reset(data); rd.Remaining() > 0; {
		at := len(data) - rd.Remaining()
		off, _, _ := readFrame(&rd)
		if rd.Err() != nil || off < 0 || off == math.MaxInt64 {
			break // a truncated tail, or an offset no log reaches
		}
		if off < first || off > first+int64(len(starts)) {
			first = off
		}
		starts = append(starts[:off-first], at)
	}
	p.head, p.next = first, first
	for _, at := range starts {
		rd.Reset(data[at:])
		_, key, val := readFrame(&rd)
		p.put(key, val)
	}
}

// readFrame reads one segment frame; val aliases the reader's buffer.
func readFrame(rd *codec.Reader) (off int64, key uint64, val []byte) {
	return int64(rd.Uvarint()), rd.Uvarint(), rd.Bytes32()
}

func (s *segment) append(rec Record) error {
	if err := faultpoint.Inject("mq.segment.append"); err != nil {
		return err
	}
	w := codec.NewWriter(32 + len(rec.Value))
	w.Uvarint(uint64(rec.Offset))
	w.Uvarint(rec.Key)
	w.Bytes32(rec.Value)
	if _, err := s.w.Write(w.Bytes()); err != nil {
		return err
	}
	s.pending++
	if s.policy == FsyncInterval && s.pending >= syncEvery {
		return s.sync()
	}
	return nil
}

// sync flushes buffered frames and fsyncs the file — the durability
// boundary of the Fsync policy. Under FsyncAlways the partition calls it
// once per append/batch before the records become visible; under
// FsyncInterval it runs every syncEvery appends; under FsyncNever only
// close reaches it.
func (s *segment) sync() error {
	// Torn-write boundary: a fault here models power loss between the
	// buffered write and its fsync.
	if err := faultpoint.Inject("mq.segment.sync"); err != nil {
		return err
	}
	s.pending = 0
	if err := s.w.Flush(); err != nil {
		return err
	}
	return s.f.Sync()
}

func (s *segment) close() error {
	// Final-flush boundary: a fault here models losing the buffered tail
	// of the log on shutdown.
	if err := faultpoint.Inject("mq.segment.close"); err != nil {
		s.f.Close()
		return err
	}
	if err := s.w.Flush(); err != nil {
		s.f.Close()
		return err
	}
	if err := s.f.Sync(); err != nil && err != io.EOF {
		s.f.Close()
		return err
	}
	return s.f.Close()
}
