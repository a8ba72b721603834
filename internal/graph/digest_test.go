package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// graphDigest is the SHA-256 of a graph's CSR arrays: V, then every
// RowPtr, Col and Weight word, little-endian, in array order.
func graphDigest(g *Graph) string {
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(g.V))
	h.Write(b[:])
	for _, p := range g.RowPtr {
		binary.LittleEndian.PutUint64(b[:], p)
		h.Write(b[:])
	}
	for _, c := range g.Col {
		binary.LittleEndian.PutUint32(b[:4], c)
		h.Write(b[:4])
	}
	for _, w := range g.Weight {
		binary.LittleEndian.PutUint32(b[:4], math.Float32bits(w))
		h.Write(b[:4])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// tinyScale is the tiny profile's dataset scale (core.ProfileTiny).
const tinyScale = 1.0 / 512

// datasetDigests pins every Table 3 dataset at the tiny profile's scale
// for two seeds (42, the goldens' seed, and 7). The digests were
// recorded with the switch-based quadrant descent (rmatEdgeReference),
// so a generator change that moves a single edge, weight or RNG draw
// fails here before it reaches a golden.
var datasetDigests = map[int64]map[string]string{
	42: {
		"FR":   "b3337e1dcc25bb495d67bfd84fb8e74ff84e8aee9906baea011d4353b9633f24",
		"Wiki": "5d2d8fb54d1fc124c90602ea96f9a9fdcf54d6774af39b794a7866258a1ff6ce",
		"LJ":   "d160aaf6d27ca869e30d86917853996929dcd5566b205a25f3b42f6c5a83230b",
		"S24":  "ae7689e4046ed0a5a24fed1cd5c7c87f280fd3d739e2dd0e5b69d762bc5218e1",
		"NF":   "1aec69aa240691e45851a1ae416cb6a20e7e66233c286bcfe73ce23a7628cef8",
		"Bip1": "f05a13c182aabe79358fffaec0f794416397cf499398e9ecc7600bcbf5daeb69",
		"Bip2": "ac51e5fb1707889239caf7c73ee72169c4fcf42cbf7e0c29cddb2337f1e45be5",
	},
	7: {
		"FR":   "6370e36bb0c13a582ea413fd52e0cb6a1795eb5b871fd21e6f8536e16f61b990",
		"Wiki": "76a61ef18a3f7a7830394c6e81c03676f934f3357679ecc006d69422f5bb41b0",
		"LJ":   "715f6202c9aee21d58c8f2e7e03c350d63ef9988056db3bf4daa4aafb3aa115c",
		"S24":  "ccb148bbf8f3a36852a7c57703e6a62ff931c7da118800bd277ef104093e6f80",
		"NF":   "d4d572057dd94b22aa9a92a453df294b927afcda2f387b7103e2c55d5c97ebeb",
		"Bip1": "b763352682073eea2fcd19b14b60fdba9959178b4f7f6adadb6d376df0024685",
		"Bip2": "65dffcd246c7449e2b4a2adcf52ff928fcc45f57abb466fafab6a098342cec03",
	},
}

// TestDatasetDigests: every dataset generates bit-identical CSR arrays
// to the pinned ones.
func TestDatasetDigests(t *testing.T) {
	for _, seed := range []int64{42, 7} {
		for _, d := range Datasets {
			g, err := d.Generate(tinyScale, seed)
			if err != nil {
				t.Fatal(err)
			}
			got := graphDigest(g)
			if want := datasetDigests[seed][d.Name]; got != want {
				t.Errorf("seed %d %s: digest %s, want %s", seed, d.Name, got, want)
			}
		}
	}
}
