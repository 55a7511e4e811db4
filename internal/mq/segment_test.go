package mq

import (
	"bufio"
	"bytes"
	"runtime"
	"testing"
)

// frames encodes recs as segment.append writes them to a segment file.
func frames(t testing.TB, recs []Record) []byte {
	var buf bytes.Buffer
	s := &segment{w: bufio.NewWriter(&buf), policy: FsyncNever}
	for _, rec := range recs {
		if err := s.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// replayed returns a partition holding what replay makes of data.
func replayed(t testing.TB, data []byte) *partition {
	p := newPartition(nil, "t", 0)
	if err := p.replay(data); err != nil {
		t.Fatal(err)
	}
	return p
}

// FuzzSegmentReplay: replay takes whatever a segment file holds. It must
// never panic, never allocate past a bound the input's length sets, and the
// log it builds, written back out frame by frame and replayed, must come
// back the same.
func FuzzSegmentReplay(f *testing.F) {
	rec := func(off int64, v string) Record {
		return Record{Offset: off, Key: uint64(off) * 31, Ts: 1000 + off, Value: []byte(v)}
	}
	good := frames(f, []Record{rec(0, "a"), rec(1, ""), rec(2, "ccc")})
	f.Add(good)
	f.Add(good[:len(good)-2])                                                                    // a torn tail
	f.Add(frames(f, []Record{rec(0, "a"), rec(1, "b"), rec(2, "c"), rec(1, "B"), rec(2, "C")}))  // a rewind
	f.Add(frames(f, []Record{rec(5, "a"), rec(6, "b"), rec(2, "c"), rec(9, "d"), rec(10, "e")})) // below the head, then a jump
	f.Add(frames(f, []Record{rec(0, string(make([]byte, 10<<10))), rec(1, "b")}))                // past the first arena
	f.Add(append(frames(f, []Record{rec(0, "a")}), frameOf(uint64(1), uint64(1), int64(1), uint64(1)<<62)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p := replayed(t, data)
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(2<<20+256*len(data)); grew > bound {
			t.Fatalf("replaying %d bytes allocated %d, bound %d", len(data), grew, bound)
		}
		recs := p.read(nil, p.head, p.next)
		again := replayed(t, frames(t, recs))
		if len(recs) > 0 && (again.head != p.head || again.next != p.next) {
			t.Fatalf("log [%d, %d) replays to [%d, %d)", p.head, p.next, again.head, again.next)
		}
		if got := again.read(nil, again.head, again.next); !sameRecords(got, recs) {
			t.Fatalf("%d records replay to %d that differ", len(recs), len(got))
		}
	})
}
