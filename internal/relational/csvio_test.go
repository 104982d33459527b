package relational

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

const churnCSV = `Churn,Gender,EmployerID
yes,F,acme
no,M,globex
yes,F,acme
no,F,initech
`

func TestReadCSVDictionaryEncoding(t *testing.T) {
	tab, dicts, err := ReadCSV("Customers", strings.NewReader(churnCSV), ReadCSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 4 || tab.NumCols() != 3 {
		t.Fatalf("shape = (%d,%d)", tab.NumRows(), tab.NumCols())
	}
	churn := tab.Column("Churn")
	if churn.Card != 2 || churn.Data[0] != 0 || churn.Data[1] != 1 || churn.Data[2] != 0 {
		t.Fatalf("Churn encoding = %+v", churn)
	}
	d := dicts["EmployerID"]
	if d == nil || len(d.Labels) != 3 {
		t.Fatalf("EmployerID dictionary = %+v", d)
	}
	if code, ok := d.Code("acme"); !ok || code != 0 {
		t.Fatalf("Code(acme) = %d %v", code, ok)
	}
	if d.Label(2) != "initech" || d.Label(9) != "" {
		t.Fatal("Label lookup broken")
	}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadCSVNumericBinning(t *testing.T) {
	csv := "Age,City\n10,york\n20,york\n90,leeds\n100,york\n"
	tab, dicts, err := ReadCSV("T", strings.NewReader(csv), ReadCSVOptions{NumericBins: 2})
	if err != nil {
		t.Fatal(err)
	}
	age := tab.Column("Age")
	if age.Card != 2 {
		t.Fatalf("Age card = %d", age.Card)
	}
	if age.Data[0] != 0 || age.Data[3] != 1 {
		t.Fatalf("Age bins = %v", age.Data)
	}
	if dicts["Age"] != nil {
		t.Fatal("numeric column should have nil dictionary")
	}
	if dicts["City"] == nil {
		t.Fatal("string column should have a dictionary")
	}
}

// TestReadCSVNumericBinningExtremes bins numeric columns at the edges of
// the float range: 1.5e308 is finite and must be accepted, and a range whose
// width overflows must still bin by value.
func TestReadCSVNumericBinningExtremes(t *testing.T) {
	csv := "Big,Wide\n1,-1e308\n1.5e308,0\n2,1e308\n"
	tab, _, err := ReadCSV("T", strings.NewReader(csv), ReadCSVOptions{NumericBins: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		col  string
		want []int32
	}{{"Big", []int32{0, 1, 0}}, {"Wide", []int32{0, 1, 1}}} {
		got := tab.Column(c.col).Data
		if !slices.Equal(got, c.want) {
			t.Errorf("%s bins = %v, want %v", c.col, got, c.want)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		csv  string
		opts ReadCSVOptions
	}{
		{"empty input", "", ReadCSVOptions{}},
		{"empty column name", "a,,c\n1,2,3\n", ReadCSVOptions{}},
		{"duplicate column", "a,a\n1,2\n", ReadCSVOptions{}},
		{"ragged row", "a,b\n1\n", ReadCSVOptions{}},
		{"no data rows", "a,b\n", ReadCSVOptions{}},
		{"cardinality limit", "a\nx\ny\nz\n", ReadCSVOptions{MaxCardinality: 2}},
		{"non-finite numeric value", "a\n1\nInf\n", ReadCSVOptions{NumericBins: 2}},
	}
	for _, c := range cases {
		if _, _, err := ReadCSV("T", strings.NewReader(c.csv), c.opts); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestWriteCSVRoundTrip(t *testing.T) {
	tab, dicts, err := ReadCSV("Customers", strings.NewReader(churnCSV), ReadCSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(tab, &buf, dicts); err != nil {
		t.Fatal(err)
	}
	if buf.String() != churnCSV {
		t.Fatalf("round trip mismatch:\n%q\nvs\n%q", buf.String(), churnCSV)
	}
}

func TestWriteCSVCodesWithoutDicts(t *testing.T) {
	tab := NewTable("T")
	tab.MustAddColumn(mkCol("a", 3, 2, 0, 1))
	var buf bytes.Buffer
	if err := WriteCSV(tab, &buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "a\n2\n0\n1\n" {
		t.Fatalf("codes output = %q", buf.String())
	}
}

func TestDictionarySortedLabels(t *testing.T) {
	d := &Dictionary{}
	d.add("b")
	d.add("a")
	d.add("c")
	got := d.SortedLabels()
	if got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("sorted = %v", got)
	}
	// Interning the same label twice returns the same code.
	if d.add("b") != 0 {
		t.Fatal("re-interning changed the code")
	}
}
