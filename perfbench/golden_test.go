package main

import (
	"os"
	"strings"
	"testing"
)

func TestGoldenSection(t *testing.T) {
	text := "### a\nA1\nA2\n\n### b\nB1\n\n### c\nC1\n"
	for name, want := range map[string]string{"a": "A1\nA2\n", "b": "B1\n", "c": "C1\n"} {
		got, err := goldenSection(text, name)
		if err != nil || got != want {
			t.Errorf("section %s = %q, %v; want %q", name, got, err, want)
		}
	}
	if _, err := goldenSection(text, "d"); err == nil {
		t.Error("a missing section was found")
	}
	if _, err := goldenSection("### a\nA1\n### b\nB1\n", "a"); err == nil {
		t.Error("a section without its blank separator was accepted")
	}
	if _, err := goldenSection("### ab\nX\n\n### a\nA\n", "a"); err != nil {
		t.Errorf("a header that prefixes another was confused: %v", err)
	}
}

func TestGoldenSectionsOfTheRepository(t *testing.T) {
	raw, err := os.ReadFile("../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	for exp, title := range map[string]string{"fig7": "\n== Figure 7 (Phoenix+PARSEC)", "fig1": "\n== Figure 1: SQLite"} {
		got, err := goldenSection(string(raw), exp)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(got, title) || strings.HasSuffix(got, "\n\n") || strings.Contains(got, "### ") {
			t.Errorf("%s section is not one experiment's output: starts %q, ends %q", exp, got[:40], got[len(got)-40:])
		}
	}
}

func TestCheckRows(t *testing.T) {
	want := "  a done\n  b done\n\n== T ==\nname  x\n----  -----\na     1.00x\nb     12.50x\ngmean 3.54x\n\n== U ==\nname  y\n----  -\na     2\nb     3\n"
	got := "  b done\n\n== T ==\nname  x\n----  ------\nb     12.50x\ngmean 12.50x\n\n== U ==\nname  y\n----  -\nb     3\n"
	if err := checkRows(got, want); err != nil {
		t.Errorf("a subset of the rows was refused: %v", err)
	}
	for name, bad := range map[string]string{
		"changed cell":    strings.Replace(got, "12.50x\ngmean", "12.49x\ngmean", 1),
		"missing table":   got[:strings.Index(got, "\n== U")+1],
		"renamed table":   strings.Replace(got, "== U ==", "== V ==", 1),
		"unknown row":     strings.Replace(got, "b     3", "c     3", 1),
		"no table at all": "  b done\n",
	} {
		if err := checkRows(bad, want); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
