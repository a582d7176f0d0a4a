package trace

import (
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/config"
)

// Access-stream precomputation (ROADMAP): a synthetic stream is a pure
// function of (profile, geometry, seed), and the evaluation re-reads the
// same streams constantly — every mitigation config of a figure sweep,
// every benchmark iteration, and every cell of the quick matrix replays
// the identical (workload, core) stream from scratch. This file memoizes
// generated records process-wide in fixed-size chunks so the Zipf/gap
// sampling cost is paid once per unique stream prefix. Chunks hold the
// sampled records packed (packedRecord, 12 bytes against Record's 72),
// and every read expands them into the reader's slab with the
// generator's own second pass.
//
// The cache is bounded by a global byte budget (default 512 MiB,
// override with ROWSWAP_STREAM_CACHE_MB; 0 disables memoization),
// charged in packed bytes, which also covers, up to a quarter of it,
// the baseline tapes sim keeps beside the streams they index
// (ReserveCacheBytes). When the budget is exhausted a reader
// transparently falls back to a private generator: it regenerates (and
// discards) the prefix it already consumed once, then continues live —
// bit-identical either way, because the stream is deterministic in its
// key. Chunks are produced on demand, so only prefixes actually
// consumed occupy budget, and entries are never evicted: the working
// set of an evaluation is a fixed set of stream prefixes, which is
// exactly what the budget caps. A profile whose records do not pack
// (packable) is never memoized.

// streamChunkRecords is the memoization granularity. 4096 records
// (48 KiB packed) amortizes the copy-on-write append of the chunk index
// while keeping over-generation beyond a short run's needs negligible.
const streamChunkRecords = 4096

// streamRecordBytes is what one memoized record costs the budget.
const streamRecordBytes = int64(unsafe.Sizeof(packedRecord{}))

type streamKey struct {
	prof Profile
	geo  config.Geometry
	seed uint64
}

var (
	streamCacheMu sync.Mutex
	streamCache   = make(map[streamKey]*cachedStream)
	// streamBudget is the remaining global byte allowance for memoized
	// chunks; chunk reservation decrements it and overflow flips entries
	// to fallback mode.
	streamBudget atomic.Int64
	budgetOnce   sync.Once
	// sideBytes is what ReserveCacheBytes holds; sideLimit caps it at a
	// quarter of the budget, so side state never takes the streams'
	// share.
	sideBytes, sideLimit atomic.Int64
	// chunkRecords is what the memoized chunks hold; fallbacks counts
	// the readers that fell back to a private generator (CacheStats).
	chunkRecords, fallbacks atomic.Int64
)

func streamBudgetInit() {
	budgetOnce.Do(func() {
		mb := int64(512)
		if v := os.Getenv("ROWSWAP_STREAM_CACHE_MB"); v != "" {
			if n, err := strconv.ParseInt(v, 10, 64); err == nil && n >= 0 {
				mb = n
			}
		}
		streamBudget.Store(mb << 20)
		sideLimit.Store(mb << 20 / 4)
	})
}

// cachedStream is one memoized stream: a single generator that has
// produced chunks[0..len) so far, plus the chunk index. The index is
// published copy-on-write through an atomic pointer so readers on other
// goroutines (the sweep worker pool) can consume the already-generated
// prefix without taking the growth lock.
type cachedStream struct {
	key      streamKey
	mu       sync.Mutex // serializes generation and index growth
	gen      *generator
	chunks   atomic.Pointer[[][]packedRecord]
	overflow atomic.Bool // budget exhausted; no further chunks will appear
}

// chunk returns the idx'th memoized chunk, generating forward as needed,
// or nil when the byte budget ran out before that chunk.
func (c *cachedStream) chunk(idx int) []packedRecord {
	if chs := c.chunks.Load(); chs != nil && idx < len(*chs) {
		return (*chs)[idx]
	}
	if c.overflow.Load() {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		chs := c.chunks.Load()
		have := 0
		if chs != nil {
			have = len(*chs)
		}
		if idx < have {
			return (*chs)[idx]
		}
		if c.overflow.Load() {
			return nil
		}
		cost := int64(streamChunkRecords) * streamRecordBytes
		if streamBudget.Add(-cost) < 0 {
			streamBudget.Add(cost)
			c.overflow.Store(true)
			return nil
		}
		buf := make([]packedRecord, streamChunkRecords)
		c.gen.sample(buf)
		chunkRecords.Add(streamChunkRecords)
		next := make([][]packedRecord, have+1)
		if chs != nil {
			copy(next, *chs)
		}
		next[have] = buf
		c.chunks.Store(&next)
	}
}

// sharedReader is one consumer's cursor over a memoized stream. Each
// core gets its own reader; readers share the underlying chunks and are
// safe to use from different goroutines (each reader itself is
// single-goroutine, like any Stream).
type sharedReader struct {
	c    *cachedStream
	pos  int64
	priv *generator // non-nil after falling back past the memoized prefix
}

// NewSharedGenerator returns a BatchStream for prof that reads through
// the process-wide memoized stream cache. Identical (profile, geometry,
// seed) keys share generated records; the sequence is bit-identical to
// NewGenerator's for the same key.
func NewSharedGenerator(prof Profile, geo config.Geometry, seed uint64) BatchStream {
	return NewSharedGeneratorAt(prof, geo, seed, 0)
}

// NewSharedGeneratorAt is NewSharedGenerator positioned after the
// stream's first pos records, without copying them: a reader resumed at
// a record it consumed before continues exactly where it left off.
// A profile whose records do not pack gets a private generator,
// advanced past the first pos records.
func NewSharedGeneratorAt(prof Profile, geo config.Geometry, seed uint64, pos int64) BatchStream {
	if !packable(prof, geo) {
		g := newGenerator(prof, geo, seed)
		g.skip(pos)
		return g
	}
	streamBudgetInit()
	k := streamKey{prof: prof, geo: geo, seed: seed}
	streamCacheMu.Lock()
	e := streamCache[k]
	if e == nil {
		e = &cachedStream{key: k, gen: newGenerator(prof, geo, seed)}
		streamCache[k] = e
	}
	streamCacheMu.Unlock()
	return &sharedReader{c: e, pos: pos}
}

// Memoized reports whether every record s has produced came from the
// memoized stream cache: s is a NewSharedGenerator stream that has not
// fallen back to a private generator.
func Memoized(s Stream) bool {
	r, ok := s.(*sharedReader)
	return ok && r.priv == nil
}

// ReserveCacheBytes charges n bytes of memoized simulation state other
// than stream chunks (sim's baseline tapes) to the stream cache's byte
// budget. It reports false, charging nothing, when the budget cannot
// cover n or when all such charges together would pass a quarter of
// the budget; ReleaseCacheBytes returns a charge.
func ReserveCacheBytes(n int64) bool {
	streamBudgetInit()
	if sideBytes.Add(n) > sideLimit.Load() {
		sideBytes.Add(-n)
		return false
	}
	if streamBudget.Add(-n) < 0 {
		streamBudget.Add(n)
		sideBytes.Add(-n)
		return false
	}
	return true
}

// ReleaseCacheBytes returns n bytes charged by ReserveCacheBytes.
func ReleaseCacheBytes(n int64) {
	streamBudget.Add(n)
	sideBytes.Add(-n)
}

func (s *sharedReader) Name() string { return s.c.key.prof.Name }

func (s *sharedReader) Next() Record {
	var one [1]Record
	s.NextBatch(one[:1])
	return one[0]
}

func (s *sharedReader) NextBatch(dst []Record) int {
	if len(dst) == 0 {
		return 0
	}
	if s.priv != nil {
		return s.priv.NextBatch(dst)
	}
	idx := int(s.pos / streamChunkRecords)
	off := int(s.pos % streamChunkRecords)
	ch := s.c.chunk(idx)
	if ch == nil {
		s.fallback()
		return s.priv.NextBatch(dst)
	}
	n := min(len(dst), len(ch)-off)
	s.c.gen.expand(dst, ch[off:off+n])
	s.pos += int64(n)
	return n
}

// fallback switches the reader to a private generator after the global
// budget ran out: regenerate the consumed prefix once (discarding it),
// then continue live. Determinism makes this exact; the cost is one
// O(pos) replay per reader, only ever paid under memory pressure.
func (s *sharedReader) fallback() {
	g := newGenerator(s.c.key.prof, s.c.key.geo, s.c.key.seed)
	g.skip(s.pos)
	s.priv = g
	fallbacks.Add(1)
}

// skip draws and discards the stream's next n records.
func (g *generator) skip(n int64) {
	var discard [512]Record
	for n > 0 {
		k := min(n, int64(len(discard)))
		g.NextBatch(discard[:k])
		n -= k
	}
}

// StreamCacheStats is a snapshot of the memoized stream cache.
type StreamCacheStats struct {
	// Records is how many records the memoized chunks hold, and Bytes
	// what they take; tapes charged through ReserveCacheBytes are not
	// included.
	Records, Bytes int64
	// Streams is the number of memoized streams.
	Streams int
	// Fallbacks is the number of readers that ran past the budget and
	// fell back to a private generator.
	Fallbacks int64
}

// CacheStats reports the memoized stream cache's size and how many
// readers fell back since the process started (or since
// ResetStreamCache).
func CacheStats() StreamCacheStats {
	streamCacheMu.Lock()
	n := len(streamCache)
	streamCacheMu.Unlock()
	recs := chunkRecords.Load()
	return StreamCacheStats{Records: recs, Bytes: recs * streamRecordBytes, Streams: n, Fallbacks: fallbacks.Load()}
}

// ResetStreamCache drops every memoized stream, returns its chunks'
// bytes to the budget and zeroes the fallback count, so a benchmark can
// measure the cache an evaluation fills from empty. Call it while no
// stream is being read: a reader holding a dropped stream keeps it
// alive, and chunks it adds still count in CacheStats.
func ResetStreamCache() {
	streamBudgetInit()
	streamCacheMu.Lock()
	streamCache = make(map[streamKey]*cachedStream)
	streamCacheMu.Unlock()
	streamBudget.Add(chunkRecords.Swap(0) * streamRecordBytes)
	fallbacks.Store(0)
}

// resetStreamCacheForTest drops all memoized streams and sets the budget
// to the given byte count (tests exercise the overflow fallback with
// tiny budgets). Not for production use: concurrent readers holding old
// entries keep them alive until they finish.
func resetStreamCacheForTest(budgetBytes int64) {
	budgetOnce.Do(func() {})
	ResetStreamCache()
	streamBudget.Store(budgetBytes)
	sideLimit.Store(budgetBytes / 4)
}
