package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hamlet/internal/exitcode"
	"hamlet/internal/obs"
)

// fixture resolves a committed run directory under internal/report/testdata.
func fixture(t *testing.T, name string) string {
	t.Helper()
	path := filepath.Join("..", "..", "internal", "report", "testdata", name)
	if name != "missing" {
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("fixture %s: %v", name, err)
		}
	}
	return path
}

// tamperedPrecision copies a committed run directory (manifest.json and
// histograms.json) into a temp dir with every histogram's precision set to
// p, a layout no histogram can have.
func tamperedPrecision(t *testing.T, name string, p int) string {
	t.Helper()
	src, dir := fixture(t, name), t.TempDir()
	manifest, err := os.ReadFile(filepath.Join(src, obs.ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(src, obs.HistogramsFile))
	if err != nil {
		t.Fatal(err)
	}
	var art obs.HistogramsArtifact
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatal(err)
	}
	for k, h := range art.Histograms {
		h.Precision = p
		art.Histograms[k] = h
	}
	if data, err = json.Marshal(art); err != nil {
		t.Fatal(err)
	}
	for file, content := range map[string][]byte{obs.ManifestFile: manifest, obs.HistogramsFile: data} {
		if err := os.WriteFile(filepath.Join(dir, file), content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// drive runs the CLI in-process and returns (exit code, stdout, stderr).
func drive(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestTablesRendersGolden(t *testing.T) {
	code, out, errOut := drive(t, "tables", fixture(t, "base"))
	if code != exitcode.OK {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	want, err := os.ReadFile(fixture(t, "tables.golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("tables output diverged from golden:\ngot:\n%s\nwant:\n%s", out, want)
	}
}

func TestDiffExitCodes(t *testing.T) {
	cases := []struct {
		name      string
		base, new string
		want      int
	}{
		{"identical runs pass", "base", "base", exitcode.OK},
		{"seeded drift fails", "base", "drift", exitcode.Failed},
		{"disjoint keys vacuous", "base", "disjoint", exitcode.Vacuous},
		{"missing baseline vacuous", "missing", "base", exitcode.Vacuous},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, out, errOut := drive(t, "diff", fixture(t, c.base), fixture(t, c.new))
			if code != c.want {
				t.Fatalf("exit = %d, want %d\nstdout: %s\nstderr: %s", code, c.want, out, errOut)
			}
		})
	}
}

func TestDiffNamesTheSeededDrift(t *testing.T) {
	code, out, _ := drive(t, "diff", fixture(t, "base"), fixture(t, "drift"))
	if code != exitcode.Failed {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{"DRIFT", "dErr", "0.0047 -> 0.0647", "safeROR(C)", "VERDICT FLIP"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
}

func TestDiffQuietAndTolerance(t *testing.T) {
	// tol=1 silences the measure drift; the verdict flip still gates.
	code, out, _ := drive(t, "diff", "-q", "-tol", "1", fixture(t, "base"), fixture(t, "drift"))
	if code != exitcode.Failed {
		t.Fatalf("exit = %d, want %d", code, exitcode.Failed)
	}
	if strings.Contains(out, "dErr") || !strings.Contains(out, "VERDICT FLIP") {
		t.Errorf("tol=1 output: %s", out)
	}
}

func TestTraceProfile(t *testing.T) {
	code, out, errOut := drive(t, "trace", fixture(t, "base"))
	if code != exitcode.OK {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"trace profile: experiments", "hot path", "self", "workers: avg", "counter rollups", "models_trained"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
}

func TestLatencyRendersFixture(t *testing.T) {
	code, out, errOut := drive(t, "latency", fixture(t, "latency_base"))
	if code != exitcode.OK {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"request_latency_ns", "p50", "p99.9", "100000", "precision 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("latency output missing %q:\n%s", want, out)
		}
	}
}

func TestLatencyDiffExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"identical runs pass", []string{"latency", "latency_base", "latency_base"}, exitcode.OK},
		{"seeded p99 regression fails", []string{"latency", "latency_base", "latency_regress"}, exitcode.Failed},
		{"improvement passes", []string{"latency", "latency_regress", "latency_base"}, exitcode.OK},
		{"generous tolerance passes", []string{"latency", "-tol", "9", "latency_base", "latency_regress"}, exitcode.OK},
		{"p50 gate ignores tail-only regression", []string{"latency", "-quantile", "0.5", "latency_base", "latency_regress"}, exitcode.OK},
		{"missing baseline vacuous", []string{"latency", "missing", "latency_base"}, exitcode.Vacuous},
		{"histogram-less run vacuous", []string{"latency", "base"}, exitcode.Vacuous},
		{"no aligned histograms vacuous", []string{"latency", "base", "drift"}, exitcode.Vacuous},
		// Precision -10 claims a 2^10 bucket error, which no regression can
		// cross, and puts every bucket bound at -1: refuse the run.
		{"out-of-range precision rejected", []string{"latency", "latency_base", "tampered"}, exitcode.Usage},
	}
	dirs := map[string]string{"tampered": tamperedPrecision(t, "latency_regress", -10)}
	for _, name := range []string{"latency_base", "latency_regress", "base", "drift", "missing"} {
		dirs[name] = fixture(t, name)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			args := append([]string{}, c.args...)
			for i, a := range args {
				if dir, ok := dirs[a]; ok {
					args[i] = dir
				}
			}
			code, out, errOut := drive(t, args...)
			if code != c.want {
				t.Fatalf("exit = %d, want %d\nstdout: %s\nstderr: %s", code, c.want, out, errOut)
			}
		})
	}
}

func TestLatencyDiffNamesTheRegression(t *testing.T) {
	code, out, _ := drive(t, "latency", fixture(t, "latency_base"), fixture(t, "latency_regress"))
	if code != exitcode.Failed {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{"latdiff", "request_latency_ns", "REGRESSED", "REGRESSION: 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("latdiff output missing %q:\n%s", want, out)
		}
	}
}

func TestTablesFormats(t *testing.T) {
	code, out, errOut := drive(t, "tables", "-format", "csv", fixture(t, "base"))
	if code != exitcode.OK || !strings.HasPrefix(out, "experiment,table,row,column,value\n") {
		t.Errorf("csv: exit %d, stderr %s, out:\n%.100s", code, errOut, out)
	}
	code, out, errOut = drive(t, "tables", "-format", "json", fixture(t, "base"))
	if code != exitcode.OK || !strings.HasPrefix(out, "[") {
		t.Errorf("json: exit %d, stderr %s, out:\n%.100s", code, errOut, out)
	}
	if code, _, _ := drive(t, "tables", "-format", "yaml", fixture(t, "base")); code != exitcode.Usage {
		t.Errorf("unknown format: exit %d, want %d", code, exitcode.Usage)
	}
}

func TestLatencyFormats(t *testing.T) {
	code, out, errOut := drive(t, "latency", "-format", "csv", fixture(t, "latency_base"))
	if code != exitcode.OK || !strings.HasPrefix(out, "histogram,count,min_ns,p50_ns,p90_ns,p99_ns,p999_ns,max_ns,mean_ns,precision\n") {
		t.Errorf("csv: exit %d, stderr %s, out:\n%.200s", code, errOut, out)
	}
	code, out, errOut = drive(t, "latency", "-format", "json", fixture(t, "latency_base"))
	if code != exitcode.OK || !strings.HasPrefix(out, "[") || !strings.Contains(out, `"p99_ns"`) {
		t.Errorf("json: exit %d, stderr %s, out:\n%.200s", code, errOut, out)
	}
	if code, _, _ = drive(t, "latency", "-format", "yaml", fixture(t, "latency_base")); code != exitcode.Usage {
		t.Errorf("unknown format: exit %d, want %d", code, exitcode.Usage)
	}
	// -format is a single-run rendering concern; the two-run gate refuses it.
	if code, _, _ = drive(t, "latency", "-format", "csv", fixture(t, "latency_base"), fixture(t, "latency_regress")); code != exitcode.Usage {
		t.Errorf("two-run -format: exit %d, want %d", code, exitcode.Usage)
	}
}

// metricsServer serves body as a /metrics exposition.
func metricsServer(t *testing.T, body string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, body)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestWatchRunDir: watch is live-only; a run directory is a usage error
// that points at the subcommand which reads a finished run's latency.
func TestWatchRunDir(t *testing.T) {
	code, out, errOut := drive(t, "watch", "-count", "2", "-interval", "0s", fixture(t, "latency_base"))
	if code != exitcode.Usage {
		t.Fatalf("exit = %d, want %d\n%s", code, exitcode.Usage, out)
	}
	if !strings.Contains(errOut, "report latency") {
		t.Errorf("run-dir refusal does not point at report latency: %s", errOut)
	}
}

// TestWatchHTTPTarget: an http:// target is polled as a /metrics endpoint
// (the path is appended when absent).
func TestWatchHTTPTarget(t *testing.T) {
	ts := metricsServer(t, "advisord_requests_total 7\n"+
		"advisord_request_duration_seconds_bucket{le=\"1e-06\"} 7\nadvisord_request_duration_seconds_count 7\n")
	code, out, errOut := drive(t, "watch", "-count", "1", "-interval", "0s", ts.URL)
	if code != exitcode.OK {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "7") || !strings.Contains(out, "1µs") {
		t.Errorf("watch output:\n%s", out)
	}
}

// TestWatchMissingTargetVacuous: every poll of a dead endpoint fails, so
// the watch has no evidence either way.
func TestWatchMissingTargetVacuous(t *testing.T) {
	ts := metricsServer(t, "")
	url := ts.URL
	ts.Close()
	code, out, _ := drive(t, "watch", "-count", "2", "-interval", "0s", url)
	if code != exitcode.Vacuous {
		t.Errorf("all-polls-failed exit = %d, want %d\n%s", code, exitcode.Vacuous, out)
	}
}

func TestWatchUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"watch"},
		{"watch", "-not-a-flag", "http://127.0.0.1:1"},
		{"watch", fixture(t, "latency_base")}, // run dirs are `report latency`'s
		{"watch", "http://127.0.0.1:1", "extra"},
	} {
		if code, _, _ := drive(t, args...); code != exitcode.Usage {
			t.Errorf("run(%v) = %d, want %d", args, code, exitcode.Usage)
		}
	}
}

func TestTraceFolded(t *testing.T) {
	code, out, errOut := drive(t, "trace", "-folded", fixture(t, "base"))
	if code != exitcode.OK {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		stack, _, ok := strings.Cut(line, " ")
		if !ok || !strings.HasPrefix(stack, "experiments") {
			t.Fatalf("bad folded line %q", line)
		}
	}
}

// TestVacuousRunDirs pins the exit-3 policy for read-only subcommands: a
// missing run dir or one whose artifacts cannot answer the question is
// vacuous, not a usage error.
func TestVacuousRunDirs(t *testing.T) {
	cases := [][]string{
		{"tables", "missing"},
		{"trace", "missing"},
		{"latency", "missing"},
		{"tables", "latency_base"},  // loads, but has no results.jsonl
		{"trace", "latency_base"},   // loads, but carries no span tree
		{"latency", "base"},         // loads, but has no histograms.json
		{"diff", "base", "missing"}, // new side missing
	}
	for _, args := range cases {
		full := append([]string{args[0]}, args[1:]...)
		for i := 1; i < len(full); i++ {
			full[i] = fixture(t, full[i])
		}
		code, _, errOut := drive(t, full...)
		if code != exitcode.Vacuous {
			t.Errorf("run(%v) = %d, want %d (stderr: %s)", args, code, exitcode.Vacuous, errOut)
		}
		if errOut == "" {
			t.Errorf("run(%v) exited vacuous with no explanation", args)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		nil,
		{"frobnicate"},
		{"tables"},
		{"tables", "a", "b"},
		{"diff", "only-one"},
		{"trace"},
		{"latency"},
		{"latency", "a", "b", "c"},
	}
	for _, args := range cases {
		if code, _, _ := drive(t, args...); code != exitcode.Usage {
			t.Errorf("run(%v) = %d, want %d", args, code, exitcode.Usage)
		}
	}
}

func TestHelpExitsClean(t *testing.T) {
	code, _, errOut := drive(t, "help")
	if code != exitcode.OK || !strings.Contains(errOut, "subcommands") {
		t.Errorf("help: exit %d, stderr %s", code, errOut)
	}
}

// tracedRunDir writes a run dir holding one traces.jsonl record.
func tracedRunDir(t *testing.T, record string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range map[string]string{
		"manifest.json": `{"schema_version":1,"tool":"test"}`,
		"traces.jsonl":  record + "\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestTraceCrossProcess: the two-dir trace mode joins a client and a server
// run by trace ID and renders the merged tree.
func TestTraceCrossProcess(t *testing.T) {
	clientDir := tracedRunDir(t, `{"v":1,"trace_id":"0af7651916cd43dd8448eb211c80319c","span_id":"b7ad6b7169203331","kind":"client","request_id":"r-9","span":{"name":"client(decide)","start":"2026-08-08T12:00:00Z","duration_ms":5}}`)
	serverDir := tracedRunDir(t, `{"v":1,"trace_id":"0af7651916cd43dd8448eb211c80319c","span_id":"00f067aa0ba902b7","parent_span_id":"b7ad6b7169203331","kind":"server","request_id":"r-9","span":{"name":"server(decide)","start":"2026-08-08T12:00:00.001Z","duration_ms":3.5,"children":[{"name":"decode","start":"2026-08-08T12:00:00.001Z","duration_ms":0.1}]}}`)
	code, out, errOut := drive(t, "trace", clientDir, serverDir)
	if code != exitcode.OK {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{
		"1 complete", "trace 0af7651916cd43dd8448eb211c80319c (request r-9)",
		"client(decide)", "server(decide)", "[server]", "net+queue 1.50ms",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("cross-process trace missing %q:\n%s", want, out)
		}
	}
	// The server tree must be nested under the client span.
	ci := strings.Index(out, "client(decide)")
	si := strings.Index(out, "server(decide)")
	if ci < 0 || si < ci {
		t.Errorf("server span not rendered under the client span:\n%s", out)
	}

	// Two traceless runs: vacuous, not a pass.
	code, _, errOut = drive(t, "trace", fixture(t, "base"), fixture(t, "base"))
	if code != exitcode.Vacuous || !strings.Contains(errOut, "no sampled traces") {
		t.Errorf("traceless assembly: exit %d, stderr %s", code, errOut)
	}

	// -folded is a single-run flag.
	if code, _, _ := drive(t, "trace", "-folded", clientDir, serverDir); code != exitcode.Usage {
		t.Errorf("-folded with two dirs: exit %d, want %d", code, exitcode.Usage)
	}
}

func TestSLOExitCodes(t *testing.T) {
	// The served_base fixture (histograms only) meets a 5ms objective and
	// busts a 2µs one; with no latency SLO configured it is vacuous.
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"generous objective passes", []string{"slo", "-latency-objective", "5ms", "served_base"}, exitcode.OK},
		{"tight objective exhausts", []string{"slo", "-latency-objective", "2us", "served_base"}, exitcode.Failed},
		{"availability-only has no data", []string{"slo", "-availability", "0.999", "served_base"}, exitcode.Vacuous},
		{"missing run dir", []string{"slo", "-latency-objective", "5ms", "missing"}, exitcode.Vacuous},
		{"no SLO configured", []string{"slo", "served_base"}, exitcode.Usage},
		{"bad availability", []string{"slo", "-availability", "1", "served_base"}, exitcode.Usage},
		{"bad latency target", []string{"slo", "-latency-objective", "5ms", "-latency-target", "1", "served_base"}, exitcode.Usage},
		// Precision -10 puts every bucket bound at -1, so every request
		// would count as within the objective.
		{"out-of-range precision rejected", []string{"slo", "-latency-objective", "2us", "tampered"}, exitcode.Usage},
	}
	if code, _, _ := drive(t, "slo", "-availability", "0.999"); code != exitcode.Usage {
		t.Errorf("slo with no rundir: exit %d, want %d", code, exitcode.Usage)
	}
	tampered := tamperedPrecision(t, "served_base", -10)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			full := append([]string{}, c.args...)
			if last := full[len(full)-1]; last == "tampered" {
				full[len(full)-1] = tampered
			} else {
				full[len(full)-1] = fixture(t, last)
			}
			code, out, errOut := drive(t, full...)
			if code != c.want {
				t.Fatalf("exit = %d, want %d\nstdout: %s\nstderr: %s", code, c.want, out, errOut)
			}
		})
	}

	code, out, _ := drive(t, "slo", "-latency-objective", "5ms", fixture(t, "served_base"))
	if code != exitcode.OK {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{"latency: target 99% under 5ms", "100000 requests", "within budget", "histograms.json"} {
		if !strings.Contains(out, want) {
			t.Errorf("slo output missing %q:\n%s", want, out)
		}
	}
}

// TestWatchJSONFormat: -format json emits JSONL a machine can consume.
func TestWatchJSONFormat(t *testing.T) {
	ts := metricsServer(t, "advisord_requests_total 100000\n"+
		"advisord_request_duration_seconds_bucket{le=\"1e-06\"} 100000\nadvisord_request_duration_seconds_count 100000\n")
	code, out, errOut := drive(t, "watch", "-count", "2", "-interval", "0s", "-format", "json", ts.URL)
	if code != exitcode.OK {
		t.Fatalf("exit = %d, stderr: %s", code, errOut)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("emitted %d lines, want 2 polls + summary:\n%s", len(lines), out)
	}
	var sum struct {
		Summary  bool  `json:"summary"`
		Polls    int   `json:"polls"`
		Requests int64 `json:"requests"`
		P99NS    int64 `json:"p99_ns"`
	}
	if err := json.Unmarshal([]byte(lines[2]), &sum); err != nil {
		t.Fatalf("summary line %q: %v", lines[2], err)
	}
	if !sum.Summary || sum.Polls != 2 || sum.Requests != 100_000 || sum.P99NS != 1000 {
		t.Errorf("summary = %+v", sum)
	}

	if code, _, _ := drive(t, "watch", "-format", "yaml", ts.URL); code != exitcode.Usage {
		t.Errorf("-format yaml: exit %d, want %d", code, exitcode.Usage)
	}
}
