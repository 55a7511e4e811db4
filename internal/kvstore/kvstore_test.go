package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"helios/internal/codec"
	"helios/internal/faultpoint"
)

func TestBloomNoFalseNegatives(t *testing.T) {
	b := newBloom(1000, 10)
	for i := 0; i < 1000; i++ {
		b.add([]byte(fmt.Sprintf("key-%d", i)))
	}
	for i := 0; i < 1000; i++ {
		if !b.mayContain([]byte(fmt.Sprintf("key-%d", i))) {
			t.Fatalf("false negative for key-%d", i)
		}
	}
}

func TestBloomFalsePositiveRate(t *testing.T) {
	b := newBloom(10000, 10)
	for i := 0; i < 10000; i++ {
		b.add([]byte(fmt.Sprintf("key-%d", i)))
	}
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		if b.mayContain([]byte(fmt.Sprintf("absent-%d", i))) {
			fp++
		}
	}
	// 10 bits/key should give ~1% FP; allow 3%.
	if rate := float64(fp) / probes; rate > 0.03 {
		t.Fatalf("false positive rate %.3f too high", rate)
	}
}

func TestBloomTinyAndDegenerate(t *testing.T) {
	b := newBloom(0, 0)
	b.add([]byte("x"))
	if !b.mayContain([]byte("x")) {
		t.Fatal("tiny bloom lost its key")
	}
}

func TestMemoryOnlyPutGetDelete(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if err := db.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := db.Get([]byte("a"))
	if err != nil || !ok || !bytes.Equal(v, []byte("1")) {
		t.Fatalf("get: %q %v %v", v, ok, err)
	}
	// Overwrite.
	db.Put([]byte("a"), []byte("2"))
	v, _, _ = db.Get([]byte("a"))
	if !bytes.Equal(v, []byte("2")) {
		t.Fatalf("overwrite: %q", v)
	}
	// Returned value must be a private copy.
	v[0] = 'X'
	v2, _, _ := db.Get([]byte("a"))
	if !bytes.Equal(v2, []byte("2")) {
		t.Fatal("Get returned aliased value")
	}
	// Delete.
	db.Delete([]byte("a"))
	if _, ok, _ := db.Get([]byte("a")); ok {
		t.Fatal("deleted key still visible")
	}
	// Absent.
	if _, ok, _ := db.Get([]byte("never")); ok {
		t.Fatal("absent key reported present")
	}
	if has, _ := db.Has([]byte("never")); has {
		t.Fatal("Has on absent key")
	}
}

// TestMemoryOnlyDeleteLeavesNothing: a memory-only store has no runs for a
// tombstone to shadow and never flushes one away, so a delete must take the
// entry out, not leave a tombstone that MemBytes counts and Len does not.
func TestMemoryOnlyDeleteLeavesNothing(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	for i := 0; i < 10000; i++ {
		k := []byte(fmt.Sprintf("key-%05d", i))
		db.Put(k, []byte("v"))
		db.Delete(k)
	}
	n, _ := db.Len()
	if mem := db.MemBytes(); mem != 0 || n != 0 {
		t.Fatalf("after 10000 put+delete pairs: MemBytes %d, Len %d; want 0, 0", mem, n)
	}
}

func TestPutCopiesValue(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	val := []byte("orig")
	db.Put([]byte("k"), val)
	val[0] = 'X'
	got, _, _ := db.Get([]byte("k"))
	if !bytes.Equal(got, []byte("orig")) {
		t.Fatal("Put did not copy the value")
	}
}

func TestMemBytesAccounting(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	if db.MemBytes() != 0 {
		t.Fatal("fresh store should be empty")
	}
	db.Put([]byte("key"), make([]byte, 100))
	after1 := db.MemBytes()
	if after1 < 100 {
		t.Fatalf("mem bytes %d too small", after1)
	}
	// Overwriting with a smaller value must shrink accounting.
	db.Put([]byte("key"), make([]byte, 10))
	if db.MemBytes() >= after1 {
		t.Fatalf("overwrite did not shrink: %d -> %d", after1, db.MemBytes())
	}
}

func TestFlushAndGetFromRun(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n = 500
	for i := 0; i < n; i++ {
		db.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("val-%d", i)))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if db.MemBytes() != 0 {
		t.Fatalf("memtable not drained: %d", db.MemBytes())
	}
	if db.NumRuns() != 1 {
		t.Fatalf("runs = %d", db.NumRuns())
	}
	if db.DiskBytes() == 0 {
		t.Fatal("disk bytes should be nonzero")
	}
	for i := 0; i < n; i++ {
		v, ok, err := db.Get([]byte(fmt.Sprintf("key-%04d", i)))
		if err != nil || !ok || !bytes.Equal(v, []byte(fmt.Sprintf("val-%d", i))) {
			t.Fatalf("key-%04d after flush: %q %v %v", i, v, ok, err)
		}
	}
	if _, ok, _ := db.Get([]byte("key-9999")); ok {
		t.Fatal("absent key found in run")
	}
	// Memtable shadows runs.
	db.Put([]byte("key-0000"), []byte("newer"))
	v, _, _ := db.Get([]byte("key-0000"))
	if !bytes.Equal(v, []byte("newer")) {
		t.Fatal("memtable should shadow run")
	}
}

func TestTombstoneShadowsRun(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(Options{Dir: dir})
	defer db.Close()
	db.Put([]byte("k"), []byte("v"))
	db.Flush()
	db.Delete([]byte("k"))
	if _, ok, _ := db.Get([]byte("k")); ok {
		t.Fatal("tombstone in memtable should shadow run")
	}
	db.Flush()
	if _, ok, _ := db.Get([]byte("k")); ok {
		t.Fatal("flushed tombstone should shadow older run")
	}
}

func TestReopenLoadsRuns(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(Options{Dir: dir})
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte{byte(i)})
	}
	db.Flush()
	// Second generation shadows the first for overlapping keys.
	db.Put([]byte("k000"), []byte("new"))
	db.Flush()
	db.Close()

	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.NumRuns() != 2 {
		t.Fatalf("reopened runs = %d", db2.NumRuns())
	}
	v, ok, err := db2.Get([]byte("k000"))
	if err != nil || !ok || !bytes.Equal(v, []byte("new")) {
		t.Fatalf("newest-wins after reopen: %q %v %v", v, ok, err)
	}
	v, ok, _ = db2.Get([]byte("k050"))
	if !ok || v[0] != 50 {
		t.Fatal("older run entry lost on reopen")
	}
}

func TestCompact(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(Options{Dir: dir})
	defer db.Close()
	for gen := 0; gen < 3; gen++ {
		for i := 0; i < 100; i++ {
			db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("g%d", gen)))
		}
		db.Flush()
	}
	db.Put([]byte("dead"), []byte("x"))
	db.Flush()
	db.Delete([]byte("dead"))
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if db.NumRuns() != 1 {
		t.Fatalf("after compaction runs = %d", db.NumRuns())
	}
	v, ok, _ := db.Get([]byte("k042"))
	if !ok || !bytes.Equal(v, []byte("g2")) {
		t.Fatalf("compaction lost newest version: %q %v", v, ok)
	}
	if _, ok, _ := db.Get([]byte("dead")); ok {
		t.Fatal("compaction resurrected a tombstoned key")
	}
	n, _ := db.Len()
	if n != 100 {
		t.Fatalf("len = %d", n)
	}
}

func TestMemBudgetTriggersSpill(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(Options{Dir: dir, MemBudgetBytes: 4096})
	defer db.Close()
	for i := 0; i < 200; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%04d", i)), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if db.NumRuns() == 0 {
		t.Fatal("budget should have forced a spill")
	}
	if db.MemBytes() > 8192 {
		t.Fatalf("memtable still %d bytes", db.MemBytes())
	}
	// Everything must still be readable.
	for i := 0; i < 200; i++ {
		if _, ok, err := db.Get([]byte(fmt.Sprintf("key-%04d", i))); !ok || err != nil {
			t.Fatalf("key-%04d lost after spill: %v %v", i, ok, err)
		}
	}
}

func TestRange(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(Options{Dir: dir})
	defer db.Close()
	for i := 0; i < 50; i++ {
		db.Put([]byte(fmt.Sprintf("k%02d", i)), []byte{byte(i)})
	}
	db.Flush()
	// Shadow some in memtable, delete one.
	db.Put([]byte("k00"), []byte{200})
	db.Delete([]byte("k01"))

	got := map[string]byte{}
	err := db.Range(func(k, v []byte) bool {
		got[string(k)] = v[0]
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 49 {
		t.Fatalf("ranged %d keys, want 49", len(got))
	}
	if got["k00"] != 200 {
		t.Fatal("memtable entry should shadow run in Range")
	}
	if _, ok := got["k01"]; ok {
		t.Fatal("deleted key visible in Range")
	}
	// Early stop.
	count := 0
	db.Range(func(_, _ []byte) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestClosedOperations(t *testing.T) {
	db, _ := Open(Options{})
	db.Close()
	if err := db.Put([]byte("k"), nil); err != ErrClosed {
		t.Fatal("Put after close")
	}
	if _, _, err := db.Get([]byte("k")); err != ErrClosed {
		t.Fatal("Get after close")
	}
	if err := db.Delete([]byte("k")); err != ErrClosed {
		t.Fatal("Delete after close")
	}
	if err := db.Range(func(_, _ []byte) bool { return true }); err != ErrClosed {
		t.Fatal("Range after close")
	}
	if db.Close() != nil {
		t.Fatal("double close")
	}
}

func TestConcurrentReadWrite(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(Options{Dir: dir, MemBudgetBytes: 16 << 10})
	defer db.Close()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := []byte(fmt.Sprintf("w%d-k%03d", id, i))
				if err := db.Put(key, bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
					t.Error(err)
					return
				}
				if _, ok, err := db.Get(key); !ok || err != nil {
					t.Errorf("read-own-write failed for %s: %v %v", key, ok, err)
					return
				}
			}
		}(w)
	}
	// Concurrent readers of random keys.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 1000; i++ {
				key := []byte(fmt.Sprintf("w%d-k%03d", rng.Intn(4), rng.Intn(500)))
				if _, _, err := db.Get(key); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(r))
	}
	wg.Wait()
	n, err := db.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2000 {
		t.Fatalf("len = %d, want 2000", n)
	}
}

func TestQuickPutGetEquivalence(t *testing.T) {
	// The store must behave like a map under any operation sequence.
	dir := t.TempDir()
	type op struct {
		Key    uint8
		Value  uint16
		Delete bool
	}
	idx := 0
	f := func(ops []op) bool {
		idx++
		db, err := Open(Options{Dir: fmt.Sprintf("%s/db%d", dir, idx), MemBudgetBytes: 512})
		if err != nil {
			return false
		}
		defer db.Close()
		model := map[string]string{}
		for i, o := range ops {
			k := fmt.Sprintf("k%d", o.Key%16)
			v := fmt.Sprintf("v%d", o.Value)
			if o.Delete {
				db.Delete([]byte(k))
				delete(model, k)
			} else {
				db.Put([]byte(k), []byte(v))
				model[k] = v
			}
			if i%7 == 0 {
				db.Flush()
			}
			if i%13 == 0 {
				db.Compact()
			}
		}
		for k, want := range model {
			got, ok, err := db.Get([]byte(k))
			if err != nil || !ok || string(got) != want {
				return false
			}
		}
		n, err := db.Len()
		return err == nil && n == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPutMemory(b *testing.B) {
	db, _ := Open(Options{})
	defer db.Close()
	val := make([]byte, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db.Put([]byte(fmt.Sprintf("key-%d", i%100000)), val)
	}
}

func BenchmarkGetMemory(b *testing.B) {
	db, _ := Open(Options{})
	defer db.Close()
	val := make([]byte, 128)
	for i := 0; i < 100000; i++ {
		db.Put([]byte(fmt.Sprintf("key-%d", i)), val)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Get([]byte(fmt.Sprintf("key-%d", i%100000)))
	}
}

func BenchmarkGetFromRun(b *testing.B) {
	dir := b.TempDir()
	db, _ := Open(Options{Dir: dir})
	defer db.Close()
	val := make([]byte, 128)
	for i := 0; i < 100000; i++ {
		db.Put([]byte(fmt.Sprintf("key-%d", i)), val)
	}
	db.Flush()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Get([]byte(fmt.Sprintf("key-%d", i%100000)))
	}
}

func TestOpenCorruptRunFails(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(Options{Dir: dir})
	db.Put([]byte("k"), []byte("v"))
	db.Flush()
	db.Close()
	// Corrupt the run body.
	matches, _ := filepath.Glob(filepath.Join(dir, "run-*.kv"))
	if len(matches) != 1 {
		t.Fatalf("runs: %v", matches)
	}
	if err := os.WriteFile(matches[0], []byte{0xFF, 0xFF, 0xFF}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("corrupt run should fail to open")
	}
}

func TestFlushEmptyIsNoop(t *testing.T) {
	db, _ := Open(Options{Dir: t.TempDir()})
	defer db.Close()
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if db.NumRuns() != 0 {
		t.Fatal("empty flush created a run")
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryOnlyFlushCompactNoop(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	db.Put([]byte("k"), []byte("v"))
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if db.NumRuns() != 0 || db.DiskBytes() != 0 {
		t.Fatal("memory-only store must not touch disk")
	}
	if v, ok, _ := db.Get([]byte("k")); !ok || string(v) != "v" {
		t.Fatal("value lost")
	}
}

func TestDeleteAbsentKeyAccounting(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	db.Delete([]byte("never-existed"))
	if _, ok, _ := db.Get([]byte("never-existed")); ok {
		t.Fatal("tombstone for absent key visible")
	}
	n, _ := db.Len()
	if n != 0 {
		t.Fatalf("len = %d", n)
	}
}

func TestFlushFaultThawsAndRetries(t *testing.T) {
	defer faultpoint.Reset()
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n = 100
	for i := 0; i < n; i++ {
		db.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("val-%d", i)))
	}

	// The injected run-write failure must surface AND thaw the frozen
	// entries back into the memtable — nothing is lost.
	faultpoint.ErrorOnce("kvstore.run.write")
	if err := db.Flush(); err == nil {
		t.Fatal("armed flush should fail")
	}
	if db.NumRuns() != 0 {
		t.Fatalf("failed flush left %d runs", db.NumRuns())
	}
	if db.MemBytes() == 0 {
		t.Fatal("failed flush did not thaw entries back into the memtable")
	}
	for i := 0; i < n; i++ {
		v, ok, err := db.Get([]byte(fmt.Sprintf("key-%04d", i)))
		if err != nil || !ok || !bytes.Equal(v, []byte(fmt.Sprintf("val-%d", i))) {
			t.Fatalf("key-%04d lost after failed flush: %q %v %v", i, v, ok, err)
		}
	}

	// The retry (budget exhausted) succeeds and drains everything.
	if err := db.Flush(); err != nil {
		t.Fatalf("flush retry: %v", err)
	}
	if db.NumRuns() != 1 || db.MemBytes() != 0 {
		t.Fatalf("after retry: runs=%d mem=%d", db.NumRuns(), db.MemBytes())
	}
	for i := 0; i < n; i++ {
		v, ok, err := db.Get([]byte(fmt.Sprintf("key-%04d", i)))
		if err != nil || !ok || !bytes.Equal(v, []byte(fmt.Sprintf("val-%d", i))) {
			t.Fatalf("key-%04d after retried flush: %q %v %v", i, v, ok, err)
		}
	}
}

// TestGetNeverMissesAcrossFlush: a key that has been written stays
// readable at every instant of a flush — while its shard's map is frozen,
// while a failed flush thaws it back, and while a successful one hands it
// to the run. Readers spin over a fixed key set as flushes alternate
// between failing and succeeding; with values rewritten between flushes
// so every flush has something to freeze.
func TestGetNeverMissesAcrossFlush(t *testing.T) {
	defer faultpoint.Reset()
	db, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const keys = 256
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }
	for i := 0; i < keys; i++ {
		if err := db.Put(key(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, ok, err := db.Get(key(i % keys)); !ok || err != nil {
					t.Errorf("key %d unreadable mid-flush: ok=%v err=%v", i%keys, ok, err)
					return
				}
			}
		}(r)
	}
	for round := 0; round < 40; round++ {
		if round%2 == 0 {
			faultpoint.ErrorOnce("kvstore.run.write")
		}
		if err := db.Flush(); (err != nil) != (round%2 == 0) {
			t.Errorf("round %d: flush error %v", round, err)
		}
		for i := round; i < keys; i += 8 {
			if err := db.Put(key(i), []byte{byte(round)}); err != nil {
				t.Error(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// FuzzOpenRun is openRun under arbitrary bytes: a run file a crash or a bad
// disk left behind. It must never panic, what it allocates is bounded by the
// file's length (an entry is at least two bytes, so a file of n bytes names
// at most n/2 bloom keys), and the entries of a file it accepts, written by
// writeRun, reopen the same.
func FuzzOpenRun(f *testing.F) {
	w := codec.NewWriter(64)
	appendEntry(w, "a", entry{value: []byte("1")})
	appendEntry(w, "b", entry{tombstone: true})
	appendEntry(w, "c", entry{value: []byte("333")})
	good := w.Bytes()
	f.Add(good)
	f.Add(good[:len(good)-1])                  // a torn tail
	f.Add([]byte{0x01, 'k', 0xFF, 0xFF, 0x0F}) // a value length past the end
	f.Add(bytes.Repeat([]byte{0, 0}, 100))     // the smallest entries: empty key, empty value
	dir := f.TempDir()
	path, again := filepath.Join(dir, "fuzzed.kv"), filepath.Join(dir, "rewritten.kv")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := openRun(path, 10)
		runtime.ReadMemStats(&after)
		if err != nil {
			return
		}
		defer r.close()
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+16*len(data)); grew > bound {
			t.Fatalf("opening %d bytes allocated %d, bound %d", len(data), grew, bound)
		}
		if r.count > len(data)/2 {
			t.Fatalf("%d bytes opened as %d entries", len(data), r.count)
		}
		// The last entry of a key wins, as a reader scanning the file in
		// order would see it.
		want := make(map[string]entry)
		if err := r.scan(func(k, v []byte, tomb bool) bool {
			want[string(k)] = entry{value: append([]byte(nil), v...), tombstone: tomb}
			return true
		}); err != nil {
			t.Fatalf("an opened run fails its scan: %v", err)
		}
		kvs := make([]flushEntry, 0, len(want))
		for k, e := range want {
			kvs = append(kvs, flushEntry{key: k, entry: e})
		}
		sort.Slice(kvs, func(i, j int) bool { return kvs[i].key < kvs[j].key })
		written, err := writeRun(again, kvs, 10)
		if err != nil {
			t.Fatal(err)
		}
		written.close()
		reopened, err := openRun(again, 10)
		if err != nil {
			t.Fatalf("a run writeRun wrote does not reopen: %v", err)
		}
		defer reopened.close()
		if reopened.count != len(kvs) {
			t.Fatalf("%d entries written, %d reopened", len(kvs), reopened.count)
		}
		for _, kv := range kvs {
			v, tomb, found, err := reopened.get([]byte(kv.key))
			if err != nil || !found || tomb != kv.tombstone || !bytes.Equal(v, kv.value) {
				t.Fatalf("key %q: got %q tomb=%v found=%v err=%v, want %q tomb=%v", kv.key, v, tomb, found, err, kv.value, kv.tombstone)
			}
		}
	})
}
