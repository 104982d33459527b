package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"log/slog"
	"os"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// writeFixtureEvents emits one event of every kind this package produces,
// plus a CLI-style custom event, with all volatile inputs pinned.
func writeFixtureEvents(w *bytes.Buffer) {
	fixed := time.Date(2016, 6, 26, 12, 0, 0, 0, time.UTC)
	l := newEventLog(w, &fixed)

	info := &RunInfo{Tool: "hamlet", Commit: "3ef8e58deadbeef"}
	l.RunStart(info)

	l.Progress("fig3", 96, 288)
	l.Emit("decision", slog.String("attr", "products"), slog.String("verdict", "AVOID"))
	l.RunEnd(nil, 41*time.Millisecond)
}

func TestEventLogGolden(t *testing.T) {
	var buf bytes.Buffer
	writeFixtureEvents(&buf)

	golden := "testdata/events.golden.jsonl"
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("event stream diverged from golden file:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestEventLogRoundTrip re-parses the emitted JSONL and checks the schema:
// every line is a standalone JSON object with time and msg, and each kind
// carries its documented attributes with the right types.
func TestEventLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	writeFixtureEvents(&buf)

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d events, want 4:\n%s", len(lines), buf.String())
	}
	var kinds []string
	for i, line := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d not valid JSON: %v\n%s", i+1, err, line)
		}
		ts, ok := ev["time"].(string)
		if !ok {
			t.Fatalf("line %d missing time: %s", i+1, line)
		}
		if _, err := time.Parse(time.RFC3339Nano, ts); err != nil {
			t.Errorf("line %d time not RFC3339: %v", i+1, err)
		}
		if _, hasLevel := ev["level"]; hasLevel {
			t.Errorf("line %d carries a level key; events are unleveled: %s", i+1, line)
		}
		if ev["v"] != float64(SchemaVersion) {
			t.Errorf("line %d schema stamp v = %v, want %d: %s", i+1, ev["v"], SchemaVersion, line)
		}
		kind, _ := ev["msg"].(string)
		kinds = append(kinds, kind)
		switch kind {
		case "run_start":
			if ev["tool"] != "hamlet" || ev["commit"] != "3ef8e58deadbeef" {
				t.Errorf("run_start attrs: %s", line)
			}
		case "progress":
			if ev["label"] != "fig3" || ev["done"] != float64(96) || ev["total"] != float64(288) {
				t.Errorf("progress attrs: %s", line)
			}
		case "run_end":
			if ev["ok"] != true || ev["duration_ms"] != float64(41) {
				t.Errorf("run_end attrs: %s", line)
			}
		}
	}
	want := []string{"run_start", "progress", "decision", "run_end"}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Errorf("event kinds = %v, want %v", kinds, want)
	}
}

func TestEventLogFailureRunEnd(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	l.RunEnd(os.ErrNotExist, 3*time.Millisecond)
	var ev map[string]any
	if err := json.Unmarshal(buf.Bytes(), &ev); err != nil {
		t.Fatal(err)
	}
	if ev["ok"] != false || ev["error"] != os.ErrNotExist.Error() {
		t.Errorf("failed run_end = %s", buf.String())
	}
}

func TestNilEventLogNoOps(t *testing.T) {
	var l *EventLog
	l.Emit("x")
	l.RunStart(&RunInfo{Tool: "t"})
	l.RunEnd(nil, 0)
	l.Progress("p", 1, 2)
}
