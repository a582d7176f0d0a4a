package simcache

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadEntry fuzzes the read path behind Open and Get with arbitrary
// segment bytes: extra lines, torn tails, garbage. The cache's contract
// for hostile or damaged segments is absolute: never panic, never
// return an error for malformed content, and serve only a bit-exact
// valid envelope for the probed key, one of the segment's lines. Every
// miss leaves the slot clean: a Put of the key is then served, by the
// same Cache and after a reopen.
func FuzzReadEntry(f *testing.F) {
	key := Key("fuzz-entry")
	entry, err := encodeEnvelope(key, map[string]any{"ipc": 1.25, "cycles": 123456})
	if err != nil {
		f.Fatal(err)
	}
	valid := append(entry, '\n')
	other, err := encodeEnvelope(Key("fuzz-other"), 7)
	if err != nil {
		f.Fatal(err)
	}

	f.Add(valid)                                                                             // intact entry: the one legal hit
	f.Add(valid[:len(valid)/2])                                                              // truncated mid-envelope
	f.Add(valid[:0])                                                                         // empty segment
	f.Add([]byte("not json at all"))                                                         // garbage
	f.Add([]byte(`{"schema":999}`))                                                          // wrong schema, no payload
	f.Add([]byte(`{"payload":null}`))                                                        // missing checksum
	f.Add([]byte(`[1,2,3]`))                                                                 // JSON of the wrong shape
	f.Add([]byte("{\"schema\":1,\"key\":\"" + key + "\",\"sha256\":\"00\",\"payload\":{}}")) // bad sum
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x01 // single bit flip inside the envelope
	f.Add(flipped)
	f.Add(append(append(append([]byte(nil), other...), '\n'), valid...))           // another entry first
	f.Add(append(append([]byte(nil), valid...), entry[:len(entry)/2]...))          // torn tail after the entry
	f.Add(append(append([]byte(nil), flipped...), valid...))                       // corrupt line, then the entry
	f.Add(bytes.Replace(valid, []byte(`,"payload"`), []byte(",\n\"payload\""), 1)) // entry split over two lines

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		// Named as an old segment, so lines a later Put appends sort after.
		if err := os.WriteFile(filepath.Join(dir, "seg-0000000000000000-fuzz.pack"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		var v map[string]any
		hit, err := c.Get(key, &v)
		if err != nil {
			t.Fatalf("Get returned an error for segment bytes %q: %v", data, err)
		}
		if hit {
			// A hit is only legal if the fuzzer reproduced a valid
			// envelope as a line of the segment; verify rather than
			// trust it.
			raw, ok := c.GetRaw(key)
			payload, valid := decodeEnvelope(raw, key)
			if !ok || !valid || !bytes.Contains(append(append([]byte{'\n'}, data...), '\n'), append(append([]byte{'\n'}, raw...), '\n')) {
				t.Fatalf("entry served that is not a valid line of the segment: %q", data)
			}
			var check map[string]any
			if json.Unmarshal(payload, &check) != nil {
				t.Fatalf("hit with undecodable payload: %q", data)
			}
		}
		// Whatever the segment held, a fresh Put of the key is served.
		want := map[string]any{"fresh": true}
		if err := c.Put(key, want); err != nil {
			t.Fatal(err)
		}
		for name, cache := range map[string]*Cache{"same": c, "reopened": reopen(t, dir)} {
			var got map[string]any
			if hit, err := cache.Get(key, &got); err != nil || !hit || got["fresh"] != true {
				t.Fatalf("%s cache: Get after Put = (%v, %v) holding %v, want the fresh entry; segment %q", name, hit, err, got, data)
			}
		}
	})
}
