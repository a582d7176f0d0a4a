package sweep

import (
	"io"
	"sync"
)

// syncWriter serializes Write calls onto an underlying writer. RunWork's
// goroutines emit one progress line per completed job from whichever
// goroutine finished it; an unguarded writer tears and interleaves
// those lines under -workers > 1 and trips the race detector on
// non-atomic writers like bytes.Buffer. Each progress line is a single
// Write (fmt.Fprintf formats first, writes once), so per-call locking
// keeps whole lines intact.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// syncProgress wraps a progress writer for concurrent use. nil stays
// nil (progress disabled).
func syncProgress(w io.Writer) io.Writer {
	if w == nil {
		return nil
	}
	return &syncWriter{w: w}
}
