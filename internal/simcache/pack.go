package simcache

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// This file implements the cache's storage form: append-only segment
// files indexed in memory.
//
// Segment format: one envelope per line, exactly the bytes Put
// encodes and the network transport ships, so the integrity gates of
// parseEnvelope apply unchanged. A Cache only ever appends to the
// segment it created, so a process killed mid-write can leave at most
// one torn line, at the tail of its own segment; readers skip it. A
// write is one append to an already open file. A corrupted entry
// cannot be removed from its segment: it stays inert there, left out
// of the index, until its re-simulated replacement is appended or
// age-pruning removes the segment.

// packRef locates one entry inside a segment.
type packRef struct {
	path string
	off  int64
	n    int
}

// eachLine calls fn with every line of r, its newline stripped (a torn
// final line without one included), and the line's offset in r. It
// stops at the first error fn returns.
func eachLine(r io.Reader, fn func(line []byte, off int64) error) error {
	br := bufio.NewReaderSize(r, 64<<10)
	var off int64
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if ferr := fn(bytes.TrimSuffix(line, []byte{'\n'}), off); ferr != nil {
				return ferr
			}
			off += int64(len(line))
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// segments lists dir's segment files in creation order: their names
// start with the creation time (see appendEntry), and Glob sorts.
func segments(dir string) []string {
	names, _ := filepath.Glob(filepath.Join(dir, "*.pack"))
	return names
}

// scan indexes every valid line of every segment in the directory.
// Later lines win key collisions, so a re-simulated entry shadows the
// copy it replaces; invalid lines and unreadable files are skipped.
func (c *Cache) scan() {
	for _, path := range segments(c.dir) {
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		eachLine(f, func(line []byte, off int64) error {
			if e, ok := parseEnvelope(line); ok {
				c.index[e.Key] = packRef{path: path, off: off, n: len(line)}
			}
			return nil
		})
		f.Close()
	}
}

// read serves key's envelope bytes from the index, re-validating them
// and returning the extracted payload alongside. An entry that fails
// to read or validate leaves the index and is reported as a miss.
func (c *Cache) read(key string) (data []byte, payload json.RawMessage, ok bool) {
	if c == nil {
		return nil, nil, false
	}
	c.mu.RLock()
	ref, found := c.index[key]
	c.mu.RUnlock()
	if !found {
		return nil, nil, false
	}
	f, err := os.Open(ref.path)
	if err == nil {
		data = make([]byte, ref.n)
		_, err = f.ReadAt(data, ref.off)
		f.Close()
	}
	if err == nil {
		if payload, ok = decodeEnvelope(data, key); ok {
			return data, payload, true
		}
	}
	c.mu.Lock()
	if c.index[key] == ref {
		delete(c.index, key)
	}
	c.mu.Unlock()
	return nil, nil, false
}

// writeAt is the segment write, a variable so tests can fail it part
// way.
var writeAt = (*os.File).WriteAt

// appendEntry appends already-validated envelope bytes for key as one
// line of this Cache's segment, creating the segment on first use, and
// indexes the line.
func (c *Cache) appendEntry(key string, data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.seg == nil {
		f, err := os.CreateTemp(c.dir, fmt.Sprintf("seg-%016x-*.pack", time.Now().UnixNano()))
		if err != nil {
			return err
		}
		c.seg, c.end = f, 0
	}
	line := append(data[:len(data):len(data)], '\n')
	if _, err := writeAt(c.seg, line, c.end); err != nil {
		// A part-written line must not sit in front of the next entry:
		// cut it off, or leave the segment to its readers and start a
		// new one with the next write.
		if c.seg.Truncate(c.end) != nil {
			c.seg = nil
		}
		return err
	}
	c.index[key] = packRef{path: c.seg.Name(), off: c.end, n: len(data)}
	c.end += int64(len(line))
	return nil
}

// Keys returns every key the cache can currently serve, sorted.
func (c *Cache) Keys() []string {
	if c == nil {
		return nil
	}
	c.mu.RLock()
	keys := make([]string, 0, len(c.index))
	for k := range c.index {
		keys = append(keys, k)
	}
	c.mu.RUnlock()
	sort.Strings(keys)
	return keys
}
