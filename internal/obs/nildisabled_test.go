package obs

import (
	"testing"
	"time"
)

// The -out-unset contract: when no run directory is open, every call a CLI
// or library makes through the (nil) *RunDir and *EventLog must not only
// no-op but stay off the allocator entirely — these sit on per-world and
// per-dataset hot paths. The versioned writers must not regress this: the
// schema stamp lives on the enabled logger, not on the disabled path.

func TestNilEventLogHotPathAllocFree(t *testing.T) {
	var l *EventLog
	info := &RunInfo{Tool: "hamlet"}
	if n := testing.AllocsPerRun(200, func() {
		l.Emit("decision")
		l.Progress("fig3", 1, 2)
		l.RunStart(info)
		l.RunEnd(nil, time.Second)
	}); n != 0 {
		t.Errorf("nil *EventLog methods allocate %.1f/op, want 0", n)
	}
}

func TestNilRunDirHotPathAllocFree(t *testing.T) {
	var r *RunDir
	payload := map[string]string{"k": "v"} // built once; AppendResult must not touch it
	if n := testing.AllocsPerRun(200, func() {
		_ = r.Dir()
		r.Events().Progress("walmart", 1, 2)
		if err := r.AppendResult(payload); err != nil {
			t.Fatal(err)
		}
		if err := r.Close(nil, nil); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("nil *RunDir methods allocate %.1f/op, want 0", n)
	}
}

func BenchmarkNilEventLogEmit(b *testing.B) {
	var l *EventLog
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Emit("decision")
	}
}

func BenchmarkNilRunDirAppendResult(b *testing.B) {
	var r *RunDir
	row := &ResultRow{V: SchemaVersion, Experiment: "fig3"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r.AppendResult(row); err != nil {
			b.Fatal(err)
		}
	}
}
