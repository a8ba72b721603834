// Package results renders experiment output as aligned ASCII tables and
// CSV, in the shape of the paper's tables and figures. The reproduction
// commands (cmd/dvmrepro and friends) and EXPERIMENTS.md are built on it.
package results

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple column-aligned table with a caption.
type Table struct {
	Caption string
	Header  []string
	Rows    [][]string
}

// NewTable creates a table with the given caption and column headers.
func NewTable(caption string, header ...string) *Table {
	return &Table{Caption: caption, Header: header}
}

// AddRow appends a row; cells beyond the header width are rejected.
func (t *Table) AddRow(cells ...string) error {
	if len(cells) != len(t.Header) {
		return fmt.Errorf("results: row has %d cells, table has %d columns", len(cells), len(t.Header))
	}
	t.Rows = append(t.Rows, cells)
	return nil
}

// MustAddRow is AddRow that panics on arity mismatch (programming error).
func (t *Table) MustAddRow(cells ...string) {
	if err := t.AddRow(cells...); err != nil {
		panic(err)
	}
}

// WriteASCII renders the table with aligned columns.
func (t *Table) WriteASCII(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
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
	if t.Caption != "" {
		b.WriteString(t.Caption)
		b.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders ASCII.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.WriteASCII(&b)
	return b.String()
}

// Pct formats a ratio as a percentage with one decimal.
func Pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// F formats a float with the given decimals.
func F(x float64, decimals int) string {
	return fmt.Sprintf("%.*f", decimals, x)
}

// KB formats a byte count in binary KB.
func KB(b uint64) string { return fmt.Sprintf("%d KB", b>>10) }

// MB formats a byte count in binary MB.
func MB(b uint64) string { return fmt.Sprintf("%d MB", b>>20) }

// Bytes formats a byte count with a human suffix.
func Bytes(b uint64) string {
	switch {
	case b >= 1<<30 && b%(1<<30) == 0:
		return fmt.Sprintf("%d GB", b>>30)
	case b >= 1<<20:
		return fmt.Sprintf("%d MB", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%d KB", b>>10)
	default:
		return fmt.Sprintf("%d B", b)
	}
}
