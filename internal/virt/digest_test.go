package virt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// measureDigest is the SHA-256 of one virtualization measurement: the
// Result's float bits and cold-walk count, then every Counters field,
// little-endian.
func measureDigest(res Result, ctr Counters) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range []uint64{
		uint64(res.Scheme),
		math.Float64bits(res.AvgMemRefs),
		math.Float64bits(res.AvgCycles),
		math.Float64bits(res.TLBMissRate),
		uint64(res.ColdWalkRefs),
		ctr.Accesses, ctr.TLBHits, ctr.GuestRefs, ctr.HostRefs, ctr.Faults,
	} {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// measureDigests pins the virtualization table's measurement (default
// Config, 200,000 accesses) for every scheme at two seeds: 7, the
// table's, and 42. The table prints rounded values, so a stream that
// slips by one draw can hide behind its golden; it cannot hide here.
var measureDigests = map[int64]map[Scheme]string{
	7: {
		SchemeNested2D: "bb9b9812d85185e60a6d30fff4b90b19a34592fe74f067f5fb1067e930371e7b",
		SchemeGuestDVM: "51e160e1465ead8a458ec23e8c33ea0e3654cd33e305445131e235192921f78e",
		SchemeHostDVM:  "98cfbcec89e72999677c432d66a76fc292baf6897b03472fb030f06c0cf9fb4a",
		SchemeFullDVM:  "5e01bbcc2b754d2a0cf5a266ed03d325ce06b2c3668a92696acbdf9f8d551c80",
	},
	42: {
		SchemeNested2D: "650dbf57f356a993d1b38cf83e82467633399221dc6775e9d5409fc5606cb718",
		SchemeGuestDVM: "a5ee59ff0eeabf1b49dac951bc15d4bbe8c6531662f576b5b047861208446b34",
		SchemeHostDVM:  "ee0c911d6500c214832599e601bfc90d4902fd332fb6322980b6bf53e41cf664",
		SchemeFullDVM:  "e83b50d2b7ed91cb9f8ad64d80738f51cddcbdff120224b5c6467fd6868e956c",
	},
}

// TestMeasureDigests: every scheme measures exactly the pinned costs and
// counters.
func TestMeasureDigests(t *testing.T) {
	for _, seed := range []int64{7, 42} {
		for _, s := range AllSchemes {
			res, m, err := measure(s, Config{}, 200_000, seed)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := measureDigest(res, m.Counters()), measureDigests[seed][s]; got != want {
				t.Errorf("seed %d %v: digest %s, want %s (%+v %+v)", seed, s, got, want, res, m.Counters())
			}
		}
	}
}
