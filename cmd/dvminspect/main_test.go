package main

import (
	"bytes"
	"os"
	"testing"

	"github.com/dvm-sim/dvm/internal/core"
)

// TestGoldenInspectTiny pins dvminspect's output for the 15 tiny
// workloads — each layout, and the Dump of its conventional 4K and its
// Permission Entry page table — byte for byte against
// testdata/golden_inspect_tiny.txt at the repository root, the exact
// stdout of
//
//	for a in BFS PageRank SSSP; do for d in FR Wiki LJ S24; do
//		go run ./cmd/dvminspect -profile tiny -alg $a -dataset $d -q
//	done; done
//	for d in NF Bip1 Bip2; do go run ./cmd/dvminspect -profile tiny -alg CF -dataset $d -q; done
//
// run from the repository root. It calls inspect, the function main
// runs. Refresh (only when an intentional change to the layout, the
// tables or Dump lands) by redirecting both loops into the file.
func TestGoldenInspectTiny(t *testing.T) {
	want, err := os.ReadFile("../../testdata/golden_inspect_tiny.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, w := range core.ProfileTiny.Workloads() {
		if err := inspect(&out, w.Algorithm, w.Dataset, core.ProfileTiny, false); err != nil {
			t.Fatal(err)
		}
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Fatalf("dvminspect output diverged from testdata/golden_inspect_tiny.txt at line %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("dvminspect output has %d lines, testdata/golden_inspect_tiny.txt %d", len(gotLines), len(wantLines))
	}
}
