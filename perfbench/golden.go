package main

import (
	"fmt"
	"slices"
	"strings"
)

// goldenSection returns the body of the "### name" section of
// experiments_output.txt: the lines after its header up to the next
// header, minus the one blank line that separates sections. It is exactly
// what `sgxbench -experiment name` prints.
func goldenSection(text, name string) (string, error) {
	header := "### " + name + "\n"
	var start int
	switch {
	case strings.HasPrefix(text, header):
		start = len(header)
	default:
		i := strings.Index(text, "\n"+header)
		if i < 0 {
			return "", fmt.Errorf("no %q section", strings.TrimSpace(header))
		}
		start = i + 1 + len(header)
	}
	body := text[start:]
	end := strings.Index(body, "\n### ")
	if end < 0 {
		return body, nil // the last section has no separator
	}
	body = body[:end+1]
	if !strings.HasSuffix(body, "\n\n") {
		return "", fmt.Errorf("section %q does not end with a blank separator line", name)
	}
	return body[:len(body)-1], nil
}

// tableRows maps each "== title ==" table of an experiment's output to its
// lines, fields separated by one space, without the dashed rule under the
// header, whose widths follow the table's widest cell.
func tableRows(text string) map[string][]string {
	tables := make(map[string][]string)
	var title string
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "== ") && strings.HasSuffix(line, " =="):
			title = strings.TrimSuffix(strings.TrimPrefix(line, "== "), " ==")
			tables[title] = nil
		case line == "" || strings.HasPrefix(line, "  "):
			title = "" // a blank line ends a table; progress lines are indented
		case title != "" && !strings.HasPrefix(line, "-"):
			tables[title] = append(tables[title], strings.Join(strings.Fields(line), " "))
		}
	}
	return tables
}

// checkRows reports an error unless got, the output of some rows of an
// experiment, has the same tables as want, the whole experiment's output,
// and each of its rows is in want's table of the same title. The gmean
// rows summarise the rows run, so they are not compared.
func checkRows(got, want string) error {
	g, w := tableRows(got), tableRows(want)
	if len(g) == 0 || len(g) != len(w) {
		return fmt.Errorf("%d tables, want %d", len(g), len(w))
	}
	for title, rows := range g {
		have, ok := w[title]
		if !ok {
			return fmt.Errorf("table %q is not in the experiment's output", title)
		}
		for _, row := range rows {
			if !strings.HasPrefix(row, "gmean ") && !slices.Contains(have, row) {
				return fmt.Errorf("table %q: row %q differs from the experiment's output", title, row)
			}
		}
	}
	return nil
}
