package simcache

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// fill stores n distinct payloads and returns their keys in Put order.
func fill(t *testing.T, c *Cache, tag string, n int) []string {
	t.Helper()
	keys := make([]string, n)
	for i := range keys {
		keys[i] = Key(tag, i)
		if err := c.Put(keys[i], map[string]int{"i": i}); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// reopen opens dir afresh, as a new process would.
func reopen(t *testing.T, dir string) *Cache {
	t.Helper()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// onlySegment returns the one segment file in dir.
func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	segs := segments(dir)
	if len(segs) != 1 {
		t.Fatalf("%d segment files in %s, want 1", len(segs), dir)
	}
	return segs[0]
}

// requireServed fails unless c serves every key with its fill value.
func requireServed(t *testing.T, c *Cache, keys []string) {
	t.Helper()
	for i, key := range keys {
		var v map[string]int
		if hit, err := c.Get(key, &v); err != nil || !hit || v["i"] != i {
			t.Fatalf("entry %d: Get = (%v, %v) holding %v, want a hit holding %d", i, hit, err, v, i)
		}
	}
}

// TestRepeatedPackingNeverDiscardsEntries is the regression test for
// repeated runs over one cache directory: each Cache appends to a
// segment of its own and never rewrites another's, so every entry from
// every round stays servable, across a fresh Open too.
func TestRepeatedPackingNeverDiscardsEntries(t *testing.T) {
	dir := t.TempDir()
	c := reopen(t, dir)
	first := fill(t, c, "round1", 3)
	c2 := reopen(t, dir)
	second := fill(t, c2, "round2", 4)
	if segs := segments(dir); len(segs) != 2 {
		t.Fatalf("%d segment files after two writing Caches, want 2", len(segs))
	}
	all := append(append([]string(nil), first...), second...)
	for _, cache := range []*Cache{c2, reopen(t, dir)} {
		for i, key := range all {
			if !cache.Has(key) {
				t.Fatalf("entry %d lost after repeated packing", i)
			}
		}
		if got := len(cache.Keys()); got != 7 {
			t.Errorf("Keys() = %d entries, want 7", got)
		}
	}
}

// TestLaterPutShadowsEarlierEntry: a key stored again is served with
// its latest value, by the writing Cache and after a reopen, whether
// the two lines share a segment or not.
func TestLaterPutShadowsEarlierEntry(t *testing.T) {
	dir := t.TempDir()
	c := reopen(t, dir)
	key := Key("shadow")
	for _, v := range []int{1, 2} {
		if err := c.Put(key, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := reopen(t, dir).Put(key, 3); err != nil {
		t.Fatal(err)
	}
	// c has not seen the other Cache's line, which came after its Open.
	var v int
	if hit, _ := c.Get(key, &v); !hit || v != 2 {
		t.Errorf("writer: Get = (%v, %d), want its latest value 2", hit, v)
	}
	if hit, _ := reopen(t, dir).Get(key, &v); !hit || v != 3 {
		t.Errorf("reopened: Get = (%v, %d), want the latest value 3", hit, v)
	}
}

func TestCorruptPackedEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	keys := fill(t, reopen(t, dir), "corrupt-pack", 3)
	// Flip a byte inside the segment's middle entry payload.
	path := onlySegment(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := reopen(t, dir)
	hits := 0
	for _, key := range keys {
		var v map[string]int
		if hit, err := fresh.Get(key, &v); err != nil {
			t.Fatal(err)
		} else if hit {
			hits++
		}
	}
	if hits != 2 {
		t.Errorf("%d of 3 entries served from the corrupted segment, want exactly 2", hits)
	}
}

// TestTornTailIsAMiss is the crash test: a daemon killed mid-append
// leaves half an envelope, without its newline, at the tail of its
// segment. Every complete entry before it is still served, the torn
// key is a miss, and a fresh Put of that key is served after a second
// reopen.
func TestTornTailIsAMiss(t *testing.T) {
	dir := t.TempDir()
	keys := fill(t, reopen(t, dir), "torn", 3)
	torn := Key("torn", 3)
	line, err := encodeEnvelope(torn, map[string]int{"i": 3})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(onlySegment(t, dir), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(line[:len(line)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c := reopen(t, dir)
	requireServed(t, c, keys)
	if c.Has(torn) {
		t.Fatal("torn tail served as an entry")
	}
	if err := c.Put(torn, map[string]int{"i": 3}); err != nil {
		t.Fatal(err)
	}
	requireServed(t, reopen(t, dir), append(keys, torn))
}

// TestFailedAppendLeavesNoTornBytes: a write that fails part-way (a
// full disk, say) is cut back off the segment, so the next entry's
// line starts at a line boundary and every line in the file decodes.
func TestFailedAppendLeavesNoTornBytes(t *testing.T) {
	dir := t.TempDir()
	c := reopen(t, dir)
	keys := fill(t, c, "append", 2)
	errFull := errors.New("no space left on device")
	writeAt = func(f *os.File, b []byte, off int64) (int, error) {
		n, _ := f.WriteAt(b[:len(b)/2], off)
		return n, errFull
	}
	lost := Key("append", 2)
	err := c.Put(lost, map[string]int{"i": 2})
	writeAt = (*os.File).WriteAt
	if !errors.Is(err, errFull) {
		t.Fatalf("failed append returned %v, want the write error", err)
	}
	if c.Has(lost) {
		t.Error("failed append indexed its entry")
	}
	next := Key("append", 3)
	if err := c.Put(next, map[string]int{"i": 3}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(onlySegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte{'\n'}), []byte{'\n'})
	for i, line := range lines {
		if _, ok := parseEnvelope(line); !ok {
			t.Errorf("segment line %d does not decode: %q", i, line)
		}
	}
	if len(lines) != 3 {
		t.Errorf("segment holds %d lines, want 3 (the failed append cut off)", len(lines))
	}
	fresh := reopen(t, dir)
	requireServed(t, fresh, keys)
	if fresh.Has(lost) || !fresh.Has(next) {
		t.Errorf("after reopen: lost entry served %v, next entry served %v; want false, true", fresh.Has(lost), fresh.Has(next))
	}
}

// TestConcurrentPutGetHas runs writers and readers on one Cache at
// once, as the daemon's handlers and the matrix worker pool do; run
// under -race it checks the index and segment locking.
func TestConcurrentPutGetHas(t *testing.T) {
	dir := t.TempDir()
	c := reopen(t, dir)
	const goroutines, perG = 8, 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := Key("concurrent", g, i)
				if err := c.Put(key, map[string]int{"i": g*perG + i}); err != nil {
					t.Error(err)
					return
				}
				var v map[string]int
				if hit, err := c.Get(key, &v); err != nil || !hit || v["i"] != g*perG+i {
					t.Errorf("Get(%d,%d) = (%v, %v) holding %v", g, i, hit, err, v)
				}
				// Read another goroutine's keys while it writes them.
				c.Has(Key("concurrent", (g+1)%goroutines, i))
			}
		}(g)
	}
	wg.Wait()
	if got := len(reopen(t, dir).Keys()); got != goroutines*perG {
		t.Errorf("reopened cache serves %d entries, want %d", got, goroutines*perG)
	}
}

// TestPutRawRejectsInvalidEntries: PutRaw stores only bytes that
// validate as one line, and says so with ErrInvalidEntry, so an upload
// path can tell a bad request from a failing store.
func TestPutRawRejectsInvalidEntries(t *testing.T) {
	dir := t.TempDir()
	c := reopen(t, dir)
	key := Key("raw")
	valid, err := encodeEnvelope(key, 7)
	if err != nil {
		t.Fatal(err)
	}
	// An envelope spanning lines would split into torn lines on disk.
	split := bytes.Replace(valid, []byte(`,"payload"`), []byte(",\n\"payload\""), 1)
	for name, data := range map[string][]byte{
		"wrong key": valid, "multi-line": split, "truncated": valid[:len(valid)-1],
	} {
		k := key
		if name == "wrong key" {
			k = Key("other")
		}
		if err := c.PutRaw(k, data); !errors.Is(err, ErrInvalidEntry) {
			t.Errorf("%s: PutRaw = %v, want ErrInvalidEntry", name, err)
		}
	}
	if segs := segments(dir); len(segs) != 0 {
		t.Errorf("rejected entries created %d segments", len(segs))
	}
	if err := c.PutRaw(key, valid); err != nil {
		t.Fatal(err)
	}
	// A store that cannot write is an I/O error, not an invalid entry.
	broken := reopen(t, filepath.Join(t.TempDir(), "gone"))
	os.RemoveAll(broken.Dir())
	if err := broken.PutRaw(key, valid); err == nil || errors.Is(err, ErrInvalidEntry) {
		t.Errorf("PutRaw into a removed directory = %v, want an I/O error", err)
	}
}

func TestNilCachePackAndImportAreNoOps(t *testing.T) {
	var c *Cache
	if err := c.PutRaw(Key("x"), []byte("not an envelope")); err != nil {
		t.Errorf("nil PutRaw = %v", err)
	}
	if data, ok := c.GetRaw(Key("x")); ok || data != nil {
		t.Error("nil GetRaw served an entry")
	}
	if c.Has(Key("x")) {
		t.Error("nil cache claims an entry")
	}
	if c.Keys() != nil {
		t.Error("nil cache lists keys")
	}
}
