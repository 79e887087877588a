package metrics

import (
	"fmt"
	"io"
	"strings"
)

// StreamTableConfig fixes a StreamTable's whole layout before the first
// row exists. A table that computed its column widths from the data would
// have to hold every row until the last one has landed; a StreamTable
// instead derives the widths from what a sweep knows up front — the axis
// headers and the row labels the grid will produce — so each row can be
// rendered and forgotten the moment its scenarios complete. That fixed layout is what lets report tables print while a
// sweep (or a multi-host populate feeding a watch-mode merge) is still
// running, retaining O(1) rows instead of O(grid).
type StreamTableConfig struct {
	// Title, when non-empty, prints on its own line above the header.
	Title string
	// XLabel heads the row-label column ("RUs \ policy").
	XLabel string
	// RowLabels are the labels of every row the table will receive, in
	// any order; they only size the label column. A row written with a
	// label longer than all of these still renders, just misaligned.
	RowLabels []string
	// XValues are the column headers, one per value column.
	XValues []string
	// MinCell floors every value column's width (default 6 — room for a
	// "%.2f" percentage up to 999.99). Columns whose header is wider use
	// the header width.
	MinCell int
	// CSVTo, when non-nil, additionally receives each row in CSV form the
	// moment it lands (header at construction, one line per Row). The
	// table itself retains nothing — CSV rows stream to the writer just
	// like the rendered table streams to w, so capture stays O(1) however
	// large the grid. Reports that do not ask for CSV hold nothing.
	CSVTo io.Writer
}

// StreamTable renders an aligned text table row by row to an io.Writer.
// The title, header and separator are written at construction; each
// Row/FloatRow call appends one fully-rendered line. Nothing is buffered
// between rows — the optional CSV capture streams to its own writer the
// same way — so the writers' output is complete up to the last row that
// landed: the property watch-mode merges rely on to show progress
// mid-sweep, and the property that keeps retention O(1) on any grid.
type StreamTable struct {
	w      io.Writer
	widths []int
	ncols  int
	csvW   io.Writer
}

// NewStreamTable fixes the layout from cfg and writes the table header
// to w immediately.
func NewStreamTable(w io.Writer, cfg StreamTableConfig) *StreamTable {
	min := cfg.MinCell
	if min <= 0 {
		min = 6
	}
	widths := make([]int, len(cfg.XValues)+1)
	widths[0] = len(cfg.XLabel)
	for _, l := range cfg.RowLabels {
		if len(l) > widths[0] {
			widths[0] = len(l)
		}
	}
	for i, h := range cfg.XValues {
		widths[i+1] = min
		if len(h) > widths[i+1] {
			widths[i+1] = len(h)
		}
	}
	t := &StreamTable{w: w, widths: widths, ncols: len(cfg.XValues), csvW: cfg.CSVTo}
	if t.csvW != nil {
		writeCSVLine(t.csvW, cfg.XLabel, cfg.XValues)
	}
	if cfg.Title != "" {
		fmt.Fprintln(w, cfg.Title)
	}
	t.writeAligned(cfg.XLabel, cfg.XValues)
	sep := make([]string, len(cfg.XValues))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i+1])
	}
	t.writeAligned(strings.Repeat("-", widths[0]), sep)
	return t
}

// writeAligned renders one padded line.
func (t *StreamTable) writeAligned(name string, values []string) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s", t.widths[0], name)
	for i, v := range values {
		b.WriteString("  ")
		fmt.Fprintf(&b, "%-*s", t.widths[i+1], v)
	}
	b.WriteByte('\n')
	io.WriteString(t.w, b.String())
}

// writeCSVLine streams one CSV record (name, then values) to w.
func writeCSVLine(w io.Writer, name string, values []string) error {
	if _, err := io.WriteString(w, name); err != nil {
		return err
	}
	for _, v := range values {
		if _, err := io.WriteString(w, ","); err != nil {
			return err
		}
		if _, err := io.WriteString(w, v); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// Row writes one row. The number of values must match the headers. When
// the table streams CSV, a failed CSV write surfaces here (a spool file
// can hit a full disk; the aligned table is written fire-and-forget).
func (t *StreamTable) Row(name string, values ...string) error {
	if len(values) != t.ncols {
		return fmt.Errorf("metrics: row %q has %d values, table has %d columns",
			name, len(values), t.ncols)
	}
	t.writeAligned(name, values)
	if t.csvW != nil {
		if err := writeCSVLine(t.csvW, name, values); err != nil {
			return fmt.Errorf("metrics: csv stream: %w", err)
		}
	}
	return nil
}

// FloatRow writes one row of numbers with two decimals.
func (t *StreamTable) FloatRow(name string, values ...float64) error {
	strs := make([]string, len(values))
	for i, v := range values {
		strs[i] = fmt.Sprintf("%.2f", v)
	}
	return t.Row(name, strs...)
}
