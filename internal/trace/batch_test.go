package trace

import (
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/dram"
)

// drainBatch pulls n records through the BatchStream interface using a
// ragged slab-size schedule, exercising every batch-boundary case
// (single-record, tiny, typical-slab, larger-than-chunk remainders).
func drainBatch(t *testing.T, s BatchStream, n int, sizes []int) []Record {
	t.Helper()
	out := make([]Record, 0, n)
	slab := make([]Record, 0)
	for si := 0; len(out) < n; si++ {
		want := sizes[si%len(sizes)]
		if cap(slab) < want {
			slab = make([]Record, want)
		}
		got := s.NextBatch(slab[:want])
		if got <= 0 || got > want {
			t.Fatalf("NextBatch(%d) returned %d", want, got)
		}
		out = append(out, slab[:got]...)
	}
	return out[:n]
}

// TestNextBatchMatchesNext pins the core bit-identity contract of the
// batched pipeline: for every profile in the catalogue, the vectorized
// NextBatch slab fill must produce the byte-identical record sequence
// that the scalar per-record Next path produces, regardless of how the
// sequence is partitioned into batches.
func TestNextBatchMatchesNext(t *testing.T) {
	geo := config.DefaultGeometry()
	sizes := []int{1, 3, 256, 17, 1024, 2, 509}
	const n = 6000
	for _, prof := range AllProfiles() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			t.Parallel()
			seed := uint64(0xDEADBEEF) ^ uint64(len(prof.Name))
			ref := NewGenerator(prof, geo, seed)
			batched := newGenerator(prof, geo, seed)
			got := drainBatch(t, batched, n, sizes)
			for i := 0; i < n; i++ {
				want := ref.Next()
				if got[i] != want {
					t.Fatalf("record %d: batched %+v != scalar %+v", i, got[i], want)
				}
			}
		})
	}
}

// TestSharedStreamMatchesGenerator checks that reading a stream through
// the process-wide memoization cache yields the same sequence as a
// private generator, including when two readers share one entry and
// consume it at different granularities.
func TestSharedStreamMatchesGenerator(t *testing.T) {
	defer resetStreamCacheForTest(512 << 20)
	resetStreamCacheForTest(512 << 20)
	geo := config.DefaultGeometry()
	const n = 3 * streamChunkRecords / 2
	for _, name := range []string{"gups", "mcf", "lbm"} {
		prof, ok := ProfileByName(name)
		if !ok {
			t.Fatalf("no profile %q", name)
		}
		ref := NewGenerator(prof, geo, 42)
		a := NewSharedGenerator(prof, geo, 42)
		b := NewSharedGenerator(prof, geo, 42)
		ga := drainBatch(t, a, n, []int{300, 7, 4096})
		gb := drainBatch(t, b, n, []int{1, 999})
		for i := 0; i < n; i++ {
			want := ref.Next()
			if ga[i] != want {
				t.Fatalf("%s reader A record %d: %+v != %+v", name, i, ga[i], want)
			}
			if gb[i] != want {
				t.Fatalf("%s reader B record %d: %+v != %+v", name, i, gb[i], want)
			}
		}
	}
}

// TestSharedStreamOverflowFallback forces the byte budget to run out
// mid-stream and checks the reader transparently switches to a private
// generator without perturbing the sequence.
func TestSharedStreamOverflowFallback(t *testing.T) {
	defer resetStreamCacheForTest(512 << 20)
	// Budget for exactly one chunk: the second chunk overflows.
	resetStreamCacheForTest(int64(streamChunkRecords) * streamRecordBytes)
	geo := config.DefaultGeometry()
	prof, _ := ProfileByName("gups")
	ref := NewGenerator(prof, geo, 7)
	s := NewSharedGenerator(prof, geo, 7)
	const n = 3 * streamChunkRecords
	got := drainBatch(t, s, n, []int{1000})
	for i := 0; i < n; i++ {
		want := ref.Next()
		if got[i] != want {
			t.Fatalf("record %d (across overflow switch): %+v != %+v", i, got[i], want)
		}
	}
	sr := s.(*sharedReader)
	if sr.priv == nil {
		t.Fatalf("reader never fell back to a private generator under a one-chunk budget")
	}
}

// TestReserveCacheBytesKeepsStreamsShare checks that side reservations
// (sim's tapes) together hold at most a quarter of the budget, and that
// a released charge can be reserved again.
func TestReserveCacheBytesKeepsStreamsShare(t *testing.T) {
	defer resetStreamCacheForTest(512 << 20)
	resetStreamCacheForTest(4 << 20)
	if !ReserveCacheBytes(1 << 20) {
		t.Fatal("a quarter of the budget was refused")
	}
	if ReserveCacheBytes(1) {
		t.Fatal("a reservation past a quarter of the budget was granted")
	}
	if got := streamBudget.Load(); got != 3<<20 {
		t.Fatalf("budget left %d, want %d", got, 3<<20)
	}
	ReleaseCacheBytes(1 << 20)
	if !ReserveCacheBytes(1 << 20) {
		t.Fatal("a released charge could not be reserved again")
	}
	ReleaseCacheBytes(1 << 20)
}

// TestBatchedAdapter checks that Batched wraps a per-record-only Stream
// in a sequence-preserving NextBatch adapter, and passes BatchStreams
// through unchanged.
func TestBatchedAdapter(t *testing.T) {
	geo := config.DefaultGeometry()
	prof, _ := ProfileByName("mcf")
	if g := NewGenerator(prof, geo, 9); Batched(g) != g {
		t.Fatalf("Batched re-wrapped a stream that already implements NextBatch")
	}
	type nextOnly struct{ Stream }
	ref := NewGenerator(prof, geo, 9)
	wrapped := Batched(nextOnly{NewGenerator(prof, geo, 9)})
	got := drainBatch(t, wrapped, 2000, []int{64, 1, 33})
	for i, r := range got {
		if want := ref.Next(); r != want {
			t.Fatalf("adapter record %d: %+v != %+v", i, r, want)
		}
	}
}

// FuzzSharedStreamMatchesGenerator reads streams through the memoized
// cache under fuzzed profiles, seeds, geometries (channel, bank and row
// counts that are not powers of two included), start offsets and byte
// budgets that run out partway into the stream, and requires every
// record to equal a private generator's, with Loc equal to
// dram.DecodeAddr of Addr.
func FuzzSharedStreamMatchesGenerator(f *testing.F) {
	f.Add(uint8(0), uint64(42), uint8(1), uint8(0), uint8(15), uint16(1000), uint8(127), uint16(0), uint16(3000), uint8(3))
	f.Add(uint8(5), uint64(7), uint8(2), uint8(1), uint8(5), uint16(777), uint8(3), uint16(5000), uint16(4097), uint8(1))
	f.Add(uint8(40), uint64(1), uint8(0), uint8(0), uint8(0), uint16(0), uint8(0), uint16(4095), uint16(1), uint8(0))
	f.Fuzz(func(t *testing.T, profIdx uint8, seed uint64, channels, ranks, banks uint8, rows uint16, lines uint8, start, n uint16, budgetChunks uint8) {
		profs := AllProfiles()
		prof := profs[int(profIdx)%len(profs)]
		geo := config.Geometry{
			Channels:    1 + int(channels)%3,
			RanksPerCh:  1 + int(ranks)%2,
			BanksPerRnk: 1 + int(banks)%16,
			RowsPerBank: 1 + int(rows)%5000,
			RowBytes:    64 * (1 + int(lines)),
			LineBytes:   64,
		}
		// A budget of whole chunks plus a part of one: the part never
		// buys a chunk, so the stream overflows at the next chunk's
		// start, wherever the readers stand in it.
		chunkCost := int64(streamChunkRecords) * streamRecordBytes
		defer resetStreamCacheForTest(512 << 20)
		resetStreamCacheForTest(int64(budgetChunks%4)*chunkCost + chunkCost/3)

		check := func(name string, s BatchStream, ref Stream, count int) {
			t.Helper()
			got := drainBatch(t, s, count, []int{257, 1, 4096, 31})
			for i, r := range got {
				if want := ref.Next(); r != want {
					t.Fatalf("%s record %d: %+v != %+v", name, i, r, want)
				}
				if loc := dram.DecodeAddr(geo, r.Addr); !r.HasLoc || r.Loc != loc {
					t.Fatalf("%s record %d: Loc %+v, DecodeAddr %+v", name, i, r.Loc, loc)
				}
			}
		}
		check("from 0", NewSharedGenerator(prof, geo, seed), NewGenerator(prof, geo, seed), int(n)+1)
		ref := newGenerator(prof, geo, seed)
		ref.skip(int64(start))
		check("from start", NewSharedGeneratorAt(prof, geo, seed, int64(start)), ref, int(n)+1)
	})
}

// TestGapBoundDecidesMemoization checks both sides of the gap bound: the
// largest AvgGap whose gaps fit a uint32 is memoized, the next one
// bypasses the cache with a private generator, and either way the
// records, from the start or from an offset, are the private
// generator's. It also checks that the largest packed gap expands
// intact.
func TestGapBoundDecidesMemoization(t *testing.T) {
	defer resetStreamCacheForTest(512 << 20)
	resetStreamCacheForTest(512 << 20)
	geo := config.DefaultGeometry()
	base, _ := ProfileByName("mcf")
	fits := func(avg int) bool {
		p := base
		p.AvgGap = avg
		return gapBound(p) <= math.MaxUint32
	}
	lo, hi := 1, 1<<40 // fits(lo), !fits(hi)
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; fits(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	for _, avg := range []int{lo, lo + 1} {
		prof := base
		prof.AvgGap = avg
		s := NewSharedGenerator(prof, geo, 3)
		if _, shared := s.(*sharedReader); shared != (avg == lo) || Memoized(s) != (avg == lo) {
			t.Fatalf("AvgGap %d (bound %.0f): memoized %v, want %v", avg, gapBound(prof), Memoized(s), avg == lo)
		}
		ref := NewGenerator(prof, geo, 3)
		for i, r := range drainBatch(t, s, 5000, []int{100, 7}) {
			if want := ref.Next(); r != want {
				t.Fatalf("AvgGap %d record %d: %+v != %+v", avg, i, r, want)
			}
		}
		at := NewSharedGeneratorAt(prof, geo, 3, 4000)
		ref = NewGenerator(prof, geo, 3)
		for i := 0; i < 4000; i++ {
			ref.Next()
		}
		for i, r := range drainBatch(t, at, 2000, []int{333}) {
			if want := ref.Next(); r != want {
				t.Fatalf("AvgGap %d record %d from offset: %+v != %+v", avg, 4000+i, r, want)
			}
		}
	}

	g := newGenerator(base, geo, 1)
	var out [1]Record
	g.expand(out[:], []packedRecord{{gap: math.MaxUint32, row: 9, col: 5, bank: 3, flags: packedWrite}})
	if out[0].Gap != math.MaxUint32 || !out[0].Write || out[0].NoAlloc {
		t.Fatalf("largest gap expanded to %+v", out[0])
	}
}

// TestCacheStatsCountsFallbacks checks CacheStats: 12 packed bytes per
// memoized record, one stream per key, and one fallback per reader that
// runs past the budget.
func TestCacheStatsCountsFallbacks(t *testing.T) {
	defer resetStreamCacheForTest(512 << 20)
	resetStreamCacheForTest(int64(streamChunkRecords) * streamRecordBytes)
	geo := config.DefaultGeometry()
	prof, _ := ProfileByName("gups")
	for r := 0; r < 2; r++ {
		drainBatch(t, NewSharedGenerator(prof, geo, 5), 5000, []int{1000})
	}
	want := StreamCacheStats{Records: streamChunkRecords, Bytes: streamChunkRecords * 12, Streams: 1, Fallbacks: 2}
	if got := CacheStats(); got != want {
		t.Fatalf("CacheStats = %+v, want %+v", got, want)
	}
	ResetStreamCache()
	if got := CacheStats(); got != (StreamCacheStats{}) {
		t.Fatalf("CacheStats after reset = %+v, want zero", got)
	}
}
