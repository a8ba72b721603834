package results

import (
	"strings"
	"testing"
)

func TestTableASCII(t *testing.T) {
	tbl := NewTable("Caption", "A", "Long header")
	tbl.MustAddRow("x", "1")
	tbl.MustAddRow("longer", "2")
	s := tbl.String()
	if !strings.HasPrefix(s, "Caption\n") {
		t.Errorf("missing caption:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d, want 5:\n%s", len(lines), s)
	}
	// All lines align to the same width per column.
	if !strings.Contains(lines[1], "A       Long header") {
		t.Errorf("header misaligned: %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "------") {
		t.Errorf("separator missing: %q", lines[2])
	}
}

func TestAddRowArity(t *testing.T) {
	tbl := NewTable("", "A", "B")
	if err := tbl.AddRow("only one"); err == nil {
		t.Error("wrong arity accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAddRow did not panic")
		}
	}()
	tbl.MustAddRow("1", "2", "3")
}

func TestFormatters(t *testing.T) {
	if Pct(0.123) != "12.3%" {
		t.Errorf("Pct = %s", Pct(0.123))
	}
	if F(1.23456, 2) != "1.23" {
		t.Errorf("F = %s", F(1.23456, 2))
	}
	if KB(2048) != "2 KB" || MB(3<<20) != "3 MB" {
		t.Error("KB/MB wrong")
	}
	cases := map[uint64]string{1 << 30: "1 GB", 5 << 20: "5 MB", 3 << 10: "3 KB", 12: "12 B"}
	for in, want := range cases {
		if got := Bytes(in); got != want {
			t.Errorf("Bytes(%d) = %s, want %s", in, got, want)
		}
	}
}
