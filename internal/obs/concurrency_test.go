package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// TestRegistryConcurrentUpdatesDuringSnapshot hammers one registry from
// several writer goroutines while the main goroutine repeatedly serializes
// Snapshot() to JSON and renders WriteProm — the exact interleavings a
// RunDir.Close and a /metrics scrape perform against a live run. Run under
// -race (the tier-1 gate does), this pins the lock/atomic discipline of the
// registry.
func TestRegistryConcurrentUpdatesDuringSnapshot(t *testing.T) {
	r := NewRegistry()
	const writers = 4
	const perWriter = 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Counter("evals").Inc()
				r.Gauge("rows").Set(int64(i))
				r.Histogram("sizes").Observe(int64(i % 1024))
			}
		}(w)
	}
	// Serialize snapshots and scrapes concurrently with the writes.
	for i := 0; i < 200; i++ {
		if _, err := json.Marshal(r.Snapshot()); err != nil {
			t.Fatalf("snapshot %d not serializable mid-run: %v", i, err)
		}
		var scrape bytes.Buffer
		p := NewPromWriter(&scrape)
		r.WriteProm(p)
		if err := p.Err(); err != nil {
			t.Fatalf("scrape %d failed mid-run: %v", i, err)
		}
	}
	wg.Wait()
	// After the dust settles the counts must be exact — no lost updates.
	if got := r.Counter("evals").Value(); got != writers*perWriter {
		t.Errorf("evals = %d, want %d", got, writers*perWriter)
	}
	if got := r.Histogram("sizes").Count(); got != writers*perWriter {
		t.Errorf("histogram count = %d, want %d", got, writers*perWriter)
	}
}

// TestEventLogConcurrentEmit checks that interleaved emitters never tear a
// JSONL line (slog handlers serialize their writes).
func TestEventLogConcurrentEmit(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	// bytes.Buffer is not concurrency-safe; wrap it the way a file would
	// serialize at the OS level.
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	l := NewEventLog(w)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Progress("worker", int64(i), 100)
			}
		}(g)
	}
	wg.Wait()
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 800 {
		t.Fatalf("got %d lines, want 800", len(lines))
	}
	for i, line := range lines {
		if !json.Valid(line) {
			t.Fatalf("line %d torn by concurrent emit: %q", i+1, line)
		}
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
