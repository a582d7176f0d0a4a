package trace

import (
	"testing"

	"repro/internal/config"
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
