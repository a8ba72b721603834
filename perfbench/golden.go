package main

import (
	"fmt"
	"os"
	"strings"
)

// golden is the expected output: testdata/golden_tiny.txt, the exact
// stdout of `dvmrepro -profile tiny -j 1`, split into its artifact
// sections (each a title line, the table, and no trailing blank line).
type golden struct {
	sections []string
}

func loadGolden(path string) (golden, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return golden{}, fmt.Errorf("reading expected output: %w", err)
	}
	var g golden
	for _, s := range strings.Split(string(b), "\n\n") {
		if s = strings.TrimRight(s, "\n"); s != "" {
			g.sections = append(g.sections, s+"\n")
		}
	}
	return g, nil
}

// section returns the section whose title starts with prefix.
func (g golden) section(prefix string) (string, error) {
	for _, s := range g.sections {
		if strings.HasPrefix(s, prefix) {
			return s, nil
		}
	}
	return "", fmt.Errorf("expected output has no %q section", prefix)
}

// Title prefixes of the golden sections the workloads check.
const (
	titleTable1 = "Table 1:"
	titleTable3 = "Table 3:"
	titleFig8   = "Figure 8:"
	titleFig9   = "Figure 9:"
	titleTable4 = "Table 4:"
	titleFig10  = "Figure 10:"
	titleVirt   = "Extension (paper §5)"
)

// artifactTitle maps a dvmserved artifact key to its golden section.
var artifactTitle = map[string]string{
	"table1": titleTable1,
	"table3": titleTable3,
	"table4": titleTable4,
	"fig10":  titleFig10,
	"virt":   titleVirt,
}

// diffLines returns the indexes of lines that differ between got and
// want (a missing line on either side counts as different).
func diffLines(got, want string) []int {
	g := strings.Split(got, "\n")
	w := strings.Split(want, "\n")
	n := max(len(g), len(w))
	var out []int
	for i := 0; i < n; i++ {
		if i >= len(g) || i >= len(w) || g[i] != w[i] {
			out = append(out, i)
		}
	}
	return out
}
