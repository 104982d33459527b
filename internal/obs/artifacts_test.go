package obs

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestRunDirWritesAllArtifacts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	info := CollectRunInfo("hamlet", nil)
	r, err := OpenRunDir(dir, info)
	if err != nil {
		t.Fatal(err)
	}
	if r.Dir() != dir {
		t.Errorf("Dir() = %q", r.Dir())
	}
	r.Events().Progress("walmart", 1, 2)
	if err := r.AppendResult(map[string]any{"experiment": "fig3", "row": 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.AppendResult(map[string]any{"experiment": "fig3", "row": 2}); err != nil {
		t.Fatal(err)
	}
	root := StartSpan("hamlet")
	root.Child("decide").End()
	root.End()
	if err := r.Close(root, nil); err != nil {
		t.Fatal(err)
	}

	// manifest.json round-trips to the collected RunInfo.
	var gotInfo RunInfo
	mustUnmarshalFile(t, filepath.Join(dir, ManifestFile), &gotInfo)
	if gotInfo.Tool != "hamlet" || gotInfo.GoVersion != info.GoVersion {
		t.Errorf("manifest = %+v", gotInfo)
	}

	// events.jsonl brackets the run; the span tree lives only in trace.json.
	events, err := os.ReadFile(filepath.Join(dir, EventsFile))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(events)), "\n")
	kinds := make([]string, len(lines))
	for i, line := range lines {
		var ev struct {
			Msg string `json:"msg"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("events line %d: %v", i+1, err)
		}
		kinds[i] = ev.Msg
	}
	want := []string{"run_start", "progress", "run_end"}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Errorf("event kinds = %v, want %v", kinds, want)
	}

	// metrics.json is the Default registry snapshot (a JSON object).
	var metrics map[string]any
	mustUnmarshalFile(t, filepath.Join(dir, MetricsFile), &metrics)

	// trace.json holds the span tree.
	var trace struct {
		Name     string `json:"name"`
		Children []struct {
			Name string `json:"name"`
		} `json:"children"`
	}
	mustUnmarshalFile(t, filepath.Join(dir, TraceFile), &trace)
	if trace.Name != "hamlet" || len(trace.Children) != 1 || trace.Children[0].Name != "decide" {
		t.Errorf("trace = %+v", trace)
	}

	// results.jsonl has one line per AppendResult call.
	results, err := os.ReadFile(filepath.Join(dir, ResultsFile))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(results), "\n"); got != 2 {
		t.Errorf("results.jsonl has %d lines, want 2:\n%s", got, results)
	}
}

func TestRunDirNoResultsFileWithoutResults(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenRunDir(dir, CollectRunInfo("simulate", nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(nil, errors.New("boom")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, ResultsFile)); !os.IsNotExist(err) {
		t.Error("results.jsonl created despite no results")
	}
	// A nil root still yields a (null) trace.json, and the failure lands in
	// run_end.
	data, err := os.ReadFile(filepath.Join(dir, TraceFile))
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(data)) != "null" {
		t.Errorf("trace.json for traceless run = %q, want null", data)
	}
	events, err := os.ReadFile(filepath.Join(dir, EventsFile))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(events), `"error":"boom"`) || !strings.Contains(string(events), `"ok":false`) {
		t.Errorf("run_end did not record the failure:\n%s", events)
	}
}

func TestOpenRunDirEmptyIsDisabled(t *testing.T) {
	r, err := OpenRunDir("", nil)
	if err != nil || r != nil {
		t.Fatalf("OpenRunDir(\"\") = %v, %v; want nil, nil", r, err)
	}
	// The nil layer must be fully inert.
	if r.Dir() != "" || r.Events() != nil {
		t.Error("nil RunDir accessors not zero")
	}
	if err := r.AppendResult(map[string]int{"x": 1}); err != nil {
		t.Errorf("nil AppendResult: %v", err)
	}
	if err := r.Close(StartSpan("s"), nil); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

func TestRunDirNestedPathCreation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "deep", "nested", "run")
	info := &RunInfo{Tool: "experiments", Flags: map[string]string{}, Start: time.Now()}
	r, err := OpenRunDir(dir, info)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(nil, nil); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{ManifestFile, EventsFile, MetricsFile, TraceFile} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing %s: %v", f, err)
		}
	}
}

func mustUnmarshalFile(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
