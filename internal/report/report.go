// Package report renders experiment results as aligned ASCII tables (the
// repository's equivalent of the paper's figures and tables) and as CSV
// for downstream plotting.
package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Table is a titled grid of string cells.
type Table struct {
	Title   string
	Note    string // optional caption printed under the title
	Headers []string
	Rows    [][]string
}

// NewTable starts a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// addRow appends one row; cells beyond the header count are rejected.
func (t *Table) addRow(cells ...string) error {
	if len(cells) != len(t.Headers) {
		return fmt.Errorf("report: row has %d cells, table has %d columns", len(cells), len(t.Headers))
	}
	t.Rows = append(t.Rows, cells)
	return nil
}

// MustRow is addRow for construction sites where a mismatch is a
// programming error.
func (t *Table) MustRow(cells ...string) {
	if err := t.addRow(cells...); err != nil {
		panic(err)
	}
}

// Render writes the table as aligned text. The first column is
// left-aligned (labels), the rest right-aligned (numbers).
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n", t.Note)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				fmt.Fprintf(&b, "%*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	total := len(widths)*2 - 2
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderMarkdown writes the table as a GitHub-flavoured markdown table,
// with the title as a heading and the note as a caption line.
func (t *Table) RenderMarkdown(w io.Writer) error {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
	}
	row := func(cells []string) {
		b.WriteByte('|')
		for _, c := range cells {
			b.WriteByte(' ')
			b.WriteString(strings.ReplaceAll(c, "|", "\\|"))
			b.WriteString(" |")
		}
		b.WriteByte('\n')
	}
	row(t.Headers)
	b.WriteByte('|')
	for range t.Headers {
		b.WriteString("---|")
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		row(r)
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "\n*%s*\n", t.Note)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// tableJSON is the canonical machine-readable encoding of a Table. The
// CLI's -json flag and the sharesimd daemon both emit it, and clients
// compare the two byte-for-byte, so every field stays lower-case and
// headers/rows are never null.
type tableJSON struct {
	Title   string     `json:"title"`
	Note    string     `json:"note,omitempty"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// MarshalJSON encodes the table in the canonical machine-readable shape.
// Cells are already formatted strings, so non-finite floats ("NaN",
// "+Inf" from fmt) pass through as ordinary JSON strings — JSON itself
// has no NaN literal to trip over.
func (t *Table) MarshalJSON() ([]byte, error) {
	j := tableJSON{Title: t.Title, Note: t.Note, Headers: t.Headers, Rows: t.Rows}
	if j.Headers == nil {
		j.Headers = []string{}
	}
	if j.Rows == nil {
		j.Rows = [][]string{}
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes the canonical shape written by MarshalJSON, so a
// table read back from a daemon job's result re-marshals
// byte-identically.
func (t *Table) UnmarshalJSON(data []byte) error {
	var j tableJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	t.Title, t.Note, t.Headers, t.Rows = j.Title, j.Note, j.Headers, j.Rows
	return nil
}

// RenderJSON writes the table as one compact JSON object followed by a
// newline, so multi-table runs emit newline-delimited JSON (one object
// per table).
func (t *Table) RenderJSON(w io.Writer) error {
	b, err := json.Marshal(t)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// RenderCSV writes the table as CSV (headers first, no title).
func (t *Table) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Headers); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// F formats a float with 3 decimals; the house style for fractions.
func F(v float64) string { return fmt.Sprintf("%.3f", v) }

// N formats an integer count.
func N(v uint64) string { return fmt.Sprintf("%d", v) }
