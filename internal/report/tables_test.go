package report

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"hamlet/internal/experiments"
	"hamlet/internal/obs"
)

// TestTablesGolden pins the tables subcommand's core contract: the rendered
// output is a pure function of results.jsonl, byte-for-byte. The golden file
// is also what scripts/verify.sh and CI smoke against.
func TestTablesGolden(t *testing.T) {
	r := loadFixture(t, "base")
	var buf bytes.Buffer
	if err := r.WriteTables(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "tables.golden.txt")
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
		t.Errorf("rebuilt tables diverged from golden output:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

func TestTablesGroupingAndOrder(t *testing.T) {
	r := &Run{Results: []obs.ResultRow{
		{V: 1, Experiment: "fig7", Table: "B", Columns: []string{"k", "v"}, Cells: map[string]string{"k": "1", "v": "0.1000"}},
		{V: 1, Experiment: "fig3", Table: "A", Columns: []string{"k", "v"}, Cells: map[string]string{"k": "1", "v": "0.2000"}},
		{V: 1, Experiment: "fig7", Table: "B", Columns: []string{"k", "v"}, Cells: map[string]string{"k": "2", "v": "0.3000"}},
		{V: 1, Experiment: "fig7", Table: "C", Columns: []string{"k", "v"}, Cells: map[string]string{"k": "1", "v": "0.4000"}},
	}}
	results := r.Tables()
	if len(results) != 2 || results[0].ID != "fig7" || results[1].ID != "fig3" {
		t.Fatalf("experiment order = %+v", results)
	}
	if len(results[0].Tables) != 2 || results[0].Tables[0].Title != "B" || results[0].Tables[1].Title != "C" {
		t.Fatalf("fig7 table order = %+v", results[0].Tables)
	}
	b := results[0].Tables[0]
	if len(b.Rows) != 2 || !slices.Equal(b.Columns, []string{"k", "v"}) || b.Rows[0][1] != "0.1000" || b.Rows[1][0] != "2" {
		t.Errorf("table B rows = %+v", b.Rows)
	}
}

func TestWriteTablesEmptyRun(t *testing.T) {
	r := &Run{Dir: "x"}
	if err := r.WriteTables(&bytes.Buffer{}); err == nil {
		t.Error("WriteTables on a resultless run should error")
	}
	if err := r.WriteTablesCSV(&bytes.Buffer{}); err == nil {
		t.Error("WriteTablesCSV on a resultless run should error")
	}
	if err := r.WriteTablesJSON(&bytes.Buffer{}); err == nil {
		t.Error("WriteTablesJSON on a resultless run should error")
	}
}

// TestTablesJSONRoundTrip pins -format json as a faithful machine-readable
// encoding: parsing it back yields exactly the rebuilt tables.
func TestTablesJSONRoundTrip(t *testing.T) {
	r := loadFixture(t, "base")
	var buf bytes.Buffer
	if err := r.WriteTablesJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed []*experiments.Result
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed, r.Tables()) {
		t.Errorf("json round trip diverged:\ngot %+v\nwant %+v", parsed, r.Tables())
	}
}

// TestTablesCSVRoundTrip pins -format csv's long form: every cell of every
// table appears exactly once under experiment/table/row/column, and the
// values survive csv parsing byte-for-byte.
func TestTablesCSVRoundTrip(t *testing.T) {
	r := loadFixture(t, "base")
	var buf bytes.Buffer
	if err := r.WriteTablesCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"experiment", "table", "row", "column", "value"}; !reflect.DeepEqual(records[0], want) {
		t.Fatalf("header = %v, want %v", records[0], want)
	}
	type cellKey struct{ experiment, table, row, column string }
	got := make(map[cellKey]string, len(records)-1)
	for _, rec := range records[1:] {
		got[cellKey{rec[0], rec[1], rec[2], rec[3]}] = rec[4]
	}
	var cells int
	for _, res := range r.Tables() {
		for _, tab := range res.Tables {
			for i, row := range tab.Rows {
				for j, col := range tab.Columns {
					cells++
					k := cellKey{res.ID, tab.Title, strconv.Itoa(i), col}
					if v, ok := got[k]; !ok || v != row[j] {
						t.Fatalf("cell %+v = %q (present=%v), want %q", k, v, ok, row[j])
					}
				}
			}
		}
	}
	if cells != len(records)-1 {
		t.Errorf("csv has %d records for %d cells", len(records)-1, cells)
	}
}
