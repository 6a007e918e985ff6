package cogra

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/event"
)

// CSV support for heterogeneous event streams. The header names the
// shared column set:
//
//	time,type,company,sector,price:num,volume:num
//
// Columns suffixed ":num" are numeric attributes, all others symbolic;
// empty cells mean "attribute absent on this event", which is how
// streams carrying several event types with different schemas share
// one file.

// WriteCSV writes events with the union of their attributes as
// columns. Events must already be in stream order. It refuses, naming
// the event's time and the type or attribute, what the format cannot
// carry verbatim: a type, attribute name or symbolic value holding a
// comma or a line break or beginning or ending with white space
// (ReadCSV trims rows), an empty symbolic value (read back as absent), a symbolic
// attribute named like a numeric column (":num") or like a numeric
// attribute of the stream (the header has one column per name).
func WriteCSV(w io.Writer, events []*Event) error {
	numSet := map[string]bool{}
	symSet := map[string]bool{}
	for _, e := range events {
		for k := range e.Num {
			numSet[k] = true
		}
	}
	for _, e := range events {
		if why := csvText(e.Type); why != "" {
			return fmt.Errorf("cogra: WriteCSV: event at time %d: type %q %s", e.Time, e.Type, why)
		}
		for k := range e.Num {
			if why := csvText(k); why != "" {
				return fmt.Errorf("cogra: WriteCSV: event at time %d: numeric attribute %q: name %s", e.Time, k, why)
			}
		}
		for k, v := range e.Sym {
			why := csvText(v)
			switch {
			case csvText(k) != "":
				why = "name " + csvText(k)
			case strings.HasSuffix(k, ":num"):
				why = "is named like a numeric column"
			case numSet[k]:
				why = "is also a numeric attribute of the stream"
			case v == "":
				why = "is empty, which reads back as absent"
			}
			if why != "" {
				return fmt.Errorf("cogra: WriteCSV: event at time %d: symbolic attribute %q %s", e.Time, k, why)
			}
			symSet[k] = true
		}
	}
	var numCols, symCols []string
	for k := range numSet {
		numCols = append(numCols, k)
	}
	for k := range symSet {
		symCols = append(symCols, k)
	}
	sort.Strings(numCols)
	sort.Strings(symCols)

	bw := bufio.NewWriter(w)
	bw.WriteString("time,type")
	for _, c := range symCols {
		fmt.Fprintf(bw, ",%s", c)
	}
	for _, c := range numCols {
		fmt.Fprintf(bw, ",%s:num", c)
	}
	bw.WriteByte('\n')
	for _, e := range events {
		fmt.Fprintf(bw, "%d,%s", e.Time, e.Type)
		for _, c := range symCols {
			bw.WriteByte(',')
			if v, ok := e.Sym[c]; ok {
				bw.WriteString(v)
			}
		}
		for _, c := range numCols {
			bw.WriteByte(',')
			if v, ok := e.Num[c]; ok {
				bw.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
			}
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// csvText says why s cannot be written as one cell or header name, or
// returns "" when it can: cells split at commas, rows at line breaks,
// and ReadCSV trims the white space around a row.
func csvText(s string) string {
	switch {
	case strings.ContainsAny(s, ",\r\n"):
		return "holds a comma or a line break"
	case strings.TrimSpace(s) != s:
		return "begins or ends with white space"
	}
	return ""
}

// ReadCSV parses a stream written by WriteCSV (or hand-authored in the
// same format) and returns the events in file order. Blank rows are
// skipped; errors cite the 1-based line number, header included.
func ReadCSV(r io.Reader) ([]*Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("cogra: empty CSV input")
	}
	header := sc.Text()
	names := strings.Split(strings.TrimSpace(header), ",")
	if len(names) < 2 || names[0] != "time" || names[1] != "type" {
		return nil, fmt.Errorf("cogra: CSV header must start with time,type; got %q", header)
	}
	cols := make([]csvCol, 0, len(names)-2)
	for _, h := range names[2:] {
		name, numeric := strings.CutSuffix(h, ":num")
		cols = append(cols, csvCol{name: name, numeric: numeric})
	}
	var out []*Event
	for line := 2; sc.Scan(); line++ {
		row := strings.TrimSpace(sc.Text())
		if row == "" {
			continue
		}
		e, err := decodeCSVRow(row, cols)
		if err != nil {
			return nil, fmt.Errorf("cogra: line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// csvCol is one attribute column of a CSV header.
type csvCol struct {
	name    string
	numeric bool
}

// decodeCSVRow parses one non-blank data row against the header's
// attribute columns.
func decodeCSVRow(row string, cols []csvCol) (*Event, error) {
	cells := strings.Split(row, ",")
	if len(cells) != 2+len(cols) {
		return nil, fmt.Errorf("%d cells, want %d", len(cells), 2+len(cols))
	}
	tm, err := strconv.ParseInt(cells[0], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bad time %q: %w", cells[0], err)
	}
	e := event.New(cells[1], tm)
	for i, c := range cols {
		cell := cells[2+i]
		if cell == "" {
			continue
		}
		if !c.numeric {
			e.WithSym(c.name, cell)
			continue
		}
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return nil, fmt.Errorf("bad numeric %s=%q: %w", c.name, cell, err)
		}
		e.WithNum(c.name, v)
	}
	return e, nil
}
