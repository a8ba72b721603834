package cpu

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// resultDigest is the SHA-256 of one Figure 10 run: per scheme, in
// Scheme order, the walk cycles, the L1 and L2 hit and miss counts, and
// the overhead and L2 miss rate's float bits, little-endian.
func resultDigest(res Result, hs []hierarchy) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for s := Scheme4K; s <= SchemeCDVM; s++ {
		put(res.WalkCycles[s])
		put(hs[s].l1.Hits())
		put(hs[s].l1.Misses())
		put(hs[s].l2.Hits())
		put(hs[s].l2.Misses())
		put(math.Float64bits(res.Overhead[s]))
		put(math.Float64bits(res.L2MissRate[s]))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// figure10Digests pins every Figure 10 workload's run at the default
// configuration. The figure prints rounded percentages, so a trace that
// slips by one draw, or a TLB that picks another victim, can hide behind
// the golden; it cannot hide here.
var figure10Digests = map[string]string{
	"mcf":     "b7e93565f9f6d85a49cb8beb0ef0ff89fe1ced58a9b4b46a49e8549cb62774c7",
	"bt":      "d49d3945e2bf1e11bf8d7ae96b5ef8950c872c65bc180394b4b5e8f6f1415bfa",
	"cg":      "e87a72562488a4d1a7d69933d11c8a37d8576335ab03a31fac24b676bd6397d1",
	"canneal": "01207f91c29b27587f8daa1d727db32f2e762ee7d66f4ccd9d961d01c617922f",
	"xsbench": "06d923269f481c0c3993f1856d8f1969ed830cf579b959f6672798b2f12dc3eb",
}

// TestFigure10Digests: every Figure 10 workload prices exactly the
// pinned walks and TLB hits and misses.
func TestFigure10Digests(t *testing.T) {
	for _, w := range Workloads {
		res, hs, err := run(w, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := resultDigest(res, hs), figure10Digests[w.Name]; got != want {
			t.Errorf("%s: digest %s, want %s (walk cycles %v)", w.Name, got, want, res.WalkCycles)
		}
	}
}
