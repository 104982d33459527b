package relational

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// CSV interchange for nominal tables. Hamlet-Go stores categories as dense
// int32 codes; real data arrives as strings. ReadCSV dictionary-encodes each
// column (first occurrence order), records the dictionaries, and returns
// both, so WriteCSV can round-trip the original values and downstream
// reports can print category labels instead of codes.

// Dictionary maps one column's category labels to codes and back.
type Dictionary struct {
	// Labels holds the label of each code, in code order.
	Labels []string
	index  map[string]int32
}

// Code returns the code of a label and whether it is present.
func (d *Dictionary) Code(label string) (int32, bool) {
	c, ok := d.index[label]
	return c, ok
}

// Label returns the label of a code, or "" when out of range.
func (d *Dictionary) Label(code int32) string {
	if code < 0 || int(code) >= len(d.Labels) {
		return ""
	}
	return d.Labels[code]
}

// add interns a label, returning its code.
func (d *Dictionary) add(label string) int32 {
	if c, ok := d.index[label]; ok {
		return c
	}
	c := int32(len(d.Labels))
	d.Labels = append(d.Labels, label)
	if d.index == nil {
		d.index = make(map[string]int32)
	}
	d.index[label] = c
	return c
}

// ReadCSVOptions configures ReadCSV.
type ReadCSVOptions struct {
	// NumericBins, when positive, detects columns whose every value parses
	// as a float and discretizes them into this many equal-width bins (the
	// paper's §5 preprocessing) instead of dictionary-encoding them.
	NumericBins int
	// MaxCardinality rejects columns with more distinct values than this;
	// 0 means no limit. It guards against accidentally treating free text
	// or row identifiers as features.
	MaxCardinality int
}

// ReadCSV reads a header-first CSV stream into a table of dictionary-encoded
// nominal columns, returning the per-column dictionaries keyed by column
// name. Numeric columns (when NumericBins > 0) get a nil dictionary and
// bin-index codes.
func ReadCSV(name string, r io.Reader, opts ReadCSVOptions) (*Table, map[string]*Dictionary, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = false
	header, err := cr.Read()
	if err != nil {
		return nil, nil, fmt.Errorf("relational: csv %q: reading header: %w", name, err)
	}
	if len(header) == 0 {
		return nil, nil, fmt.Errorf("relational: csv %q: empty header", name)
	}
	seen := make(map[string]bool, len(header))
	for _, h := range header {
		if h == "" {
			return nil, nil, fmt.Errorf("relational: csv %q: empty column name", name)
		}
		if seen[h] {
			return nil, nil, fmt.Errorf("relational: csv %q: duplicate column %q", name, h)
		}
		seen[h] = true
	}
	raw := make([][]string, len(header))
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("relational: csv %q: %w", name, err)
		}
		if len(rec) != len(header) {
			return nil, nil, fmt.Errorf("relational: csv %q: row has %d fields, header has %d", name, len(rec), len(header))
		}
		for i, v := range rec {
			raw[i] = append(raw[i], v)
		}
	}
	if len(raw[0]) == 0 {
		return nil, nil, fmt.Errorf("relational: csv %q: no data rows", name)
	}
	t := NewTable(name)
	dicts := make(map[string]*Dictionary, len(header))
	for ci, colName := range header {
		if opts.NumericBins > 0 {
			if vals, ok := parseNumeric(raw[ci]); ok {
				col, err := EqualWidthBins(colName, vals, opts.NumericBins)
				if err != nil {
					return nil, nil, fmt.Errorf("relational: csv %q column %q: %w", name, colName, err)
				}
				if err := t.AddColumn(col); err != nil {
					return nil, nil, err
				}
				dicts[colName] = nil
				continue
			}
		}
		dict := &Dictionary{}
		data := make([]int32, len(raw[ci]))
		for i, v := range raw[ci] {
			data[i] = dict.add(v)
		}
		if opts.MaxCardinality > 0 && len(dict.Labels) > opts.MaxCardinality {
			return nil, nil, fmt.Errorf("relational: csv %q column %q has %d distinct values (limit %d)", name, colName, len(dict.Labels), opts.MaxCardinality)
		}
		if err := t.AddColumn(&Column{Name: colName, Card: len(dict.Labels), Data: data}); err != nil {
			return nil, nil, err
		}
		dicts[colName] = dict
	}
	return t, dicts, nil
}

// parseNumeric attempts to parse every value as a float.
func parseNumeric(vals []string) ([]float64, bool) {
	out := make([]float64, len(vals))
	for i, v := range vals {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, false
		}
		out[i] = f
	}
	return out, true
}

// WriteCSV writes the table as CSV. Columns with a dictionary in dicts are
// decoded to labels; others are written as integer codes. Pass nil dicts to
// write everything as codes.
func WriteCSV(t *Table, w io.Writer, dicts map[string]*Dictionary) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.ColumnNames()); err != nil {
		return err
	}
	cols := t.Columns()
	rec := make([]string, len(cols))
	for row := 0; row < t.NumRows(); row++ {
		for ci, c := range cols {
			v := c.Data[row]
			if d := dicts[c.Name]; d != nil {
				rec[ci] = d.Label(v)
			} else {
				rec[ci] = strconv.Itoa(int(v))
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SortedLabels returns a dictionary's labels in sorted order, for stable
// report output.
func (d *Dictionary) SortedLabels() []string {
	out := append([]string(nil), d.Labels...)
	sort.Strings(out)
	return out
}
