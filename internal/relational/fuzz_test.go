package relational

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadCSV exercises the CSV ingestion path with arbitrary input: it
// must either fail cleanly or produce a table that validates and
// round-trips; it must never panic. Run `go test -fuzz=FuzzReadCSV
// ./internal/relational` to explore beyond the seed corpus.
func FuzzReadCSV(f *testing.F) {
	f.Add([]byte("a,b\n1,x\n2,y\n"), 0)
	f.Add([]byte("a\n\n"), 4)
	f.Add([]byte("col,col\nv,w\n"), 0)
	f.Add([]byte("h1,h2,h3\n1.5,2.5,xx\n3.5,4.5,yy\n"), 3)
	f.Add([]byte(`q
"quoted,comma"
plain
`), 0)
	f.Add([]byte("\xff\xfe,b\n1,2\n"), 2)
	f.Fuzz(func(t *testing.T, data []byte, bins int) {
		tab, dicts, err := ReadCSV("F", bytes.NewReader(data), ReadCSVOptions{NumericBins: bins % 16, MaxCardinality: 64})
		if err != nil {
			return // clean rejection is fine
		}
		if err := tab.Validate(); err != nil {
			t.Fatalf("accepted table fails validation: %v", err)
		}
		var out strings.Builder
		if err := WriteCSV(tab, &out, dicts); err != nil {
			t.Fatalf("accepted table fails to serialize: %v", err)
		}
		// Re-reading our own output (without numeric binning, which is
		// lossy by design) must succeed.
		if _, _, err := ReadCSV("F2", strings.NewReader(out.String()), ReadCSVOptions{}); err != nil {
			t.Fatalf("round-trip re-read failed: %v\noutput: %q", err, out.String())
		}
	})
}
