package report

import (
	"errors"
	"flag"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hamlet/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// loadFixture loads one committed run directory under testdata/.
func loadFixture(t *testing.T, name string) *Run {
	t.Helper()
	r, err := Load(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("Load(%s): %v", name, err)
	}
	return r
}

func TestLoadFixture(t *testing.T) {
	r := loadFixture(t, "base")
	if r.Manifest.Tool != "experiments" {
		t.Errorf("manifest tool = %q", r.Manifest.Tool)
	}
	if r.Manifest.SchemaVersion != obs.SchemaVersion {
		t.Errorf("manifest schema_version = %d, want %d", r.Manifest.SchemaVersion, obs.SchemaVersion)
	}
	if len(r.Results) == 0 {
		t.Error("no results rows")
	}
	for i, row := range r.Results {
		if row.V != obs.SchemaVersion {
			t.Fatalf("results line %d v = %d", i+1, row.V)
		}
		if row.Experiment != "fig1" || len(row.Columns) == 0 || len(row.Cells) == 0 {
			t.Fatalf("results line %d underfilled: %+v", i+1, row)
		}
	}
	if len(r.Events) == 0 {
		t.Error("no events")
	}
	var kinds []string
	for _, ev := range r.Events {
		kinds = append(kinds, ev.Msg)
	}
	joined := strings.Join(kinds, ",")
	// The fixture predates the span_end drop: readers still load old runs.
	for _, want := range []string{"run_start", "span_end", "run_end", "experiment"} {
		if !strings.Contains(joined, want) {
			t.Errorf("events missing kind %q (have %s)", want, joined)
		}
	}
	if r.Trace == nil || r.Trace.Name != "experiments" {
		t.Errorf("trace root = %+v", r.Trace)
	}
}

func TestLoadMissingDir(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("Load on a missing dir succeeded")
	} else if !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing dir error does not preserve fs.ErrNotExist: %v", err)
	}
}

// writeRunDir writes a minimal run directory for reader tests.
func writeRunDir(t *testing.T, manifest string, extra map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, obs.ManifestFile), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, content := range extra {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestVersionGateRefusesNewerManifest(t *testing.T) {
	dir := writeRunDir(t, `{"schema_version": 99, "tool": "experiments"}`, nil)
	_, err := Load(dir)
	if err == nil || !strings.Contains(err.Error(), "schema v99") {
		t.Fatalf("v99 manifest not refused: %v", err)
	}
}

func TestVersionGateRefusesNewerLines(t *testing.T) {
	for name, content := range map[string]string{
		obs.ResultsFile: `{"v":99,"experiment":"x","table":"t","cells":{"a":"1"}}`,
		obs.EventsFile:  `{"time":"2026-08-06T00:00:00Z","msg":"run_start","v":99}`,
	} {
		dir := writeRunDir(t, `{"schema_version": 1, "tool": "experiments"}`, map[string]string{name: content + "\n"})
		if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "schema v99") {
			t.Errorf("%s with v99 line not refused: %v", name, err)
		}
	}
}

func TestLegacyVersionZeroAccepted(t *testing.T) {
	// Pre-versioning artifacts: no schema_version, no v stamps, map-only
	// result lines without a Columns stamp.
	dir := writeRunDir(t, `{"tool": "experiments", "go_version": "go1.22"}`, map[string]string{
		obs.ResultsFile: `{"experiment":"fig3","table":"T","cells":{"b":"0.5000","a":"10"}}` + "\n",
		obs.EventsFile:  `{"time":"2026-08-06T00:00:00Z","msg":"run_start","tool":"experiments"}` + "\n",
	})
	r, err := Load(dir)
	if err != nil {
		t.Fatalf("legacy run dir refused: %v", err)
	}
	if r.Manifest.SchemaVersion != 0 || len(r.Results) != 1 || len(r.Events) != 1 {
		t.Fatalf("legacy load = %+v", r)
	}
	// Legacy rows render with sorted cell keys.
	tabs := r.Tables()
	if len(tabs) != 1 || len(tabs[0].Tables) != 1 {
		t.Fatalf("legacy tables = %+v", tabs)
	}
	cols := tabs[0].Tables[0].Columns
	if strings.Join(cols, ",") != "a,b" {
		t.Errorf("legacy column fallback = %v, want sorted keys", cols)
	}
}
