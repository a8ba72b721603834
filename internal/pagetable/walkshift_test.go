package pagetable

import (
	"math/rand"
	"testing"

	"github.com/dvm-sim/dvm/internal/addr"
)

// TestWalkShiftsMatchDivision pins WalkInto's shift-and-mask arithmetic
// to the division formulas it replaces: for every legal PEFields, on 4-
// and 5-level tables, a PE at every level from 2 up must select field
// (va % span) / (span / PEFields) and report that field's permission,
// base and size; leaves at levels 1-3 must translate to PFN*span + off;
// and the frame bound must sit exactly at maxPA/span.
func TestWalkShiftsMatchDivision(t *testing.T) {
	const maxPA = uint64(1) << 52
	rng := rand.New(rand.NewSource(1))
	perms := []addr.Perm{addr.NoPerm, addr.ReadOnly, addr.ReadWrite, addr.ReadExecute}
	for _, levels := range []int{4, 5} {
		for fields := 1; fields <= EntriesPerNode; fields *= 2 {
			for level := 2; level <= levels; level++ {
				tb := MustNew(Config{Levels: levels, PEFields: fields})
				span := entrySpan(level)
				field := span / uint64(fields)
				// The lower half of the entries keeps a root-level PE
				// inside the canonical 48-bit space.
				base := uint64(rng.Intn(EntriesPerNode/2)) * span
				pe := make([]addr.Perm, fields)
				for i := range pe {
					pe[i] = perms[rng.Intn(len(perms))]
				}
				if err := tb.SetPE(addr.VA(base), level, pe); err != nil {
					t.Fatal(err)
				}
				// Both edges of the first, last and a random field, then
				// random offsets.
				var offs []uint64
				for _, fi := range []uint64{0, uint64(fields - 1), uint64(rng.Intn(fields))} {
					offs = append(offs, fi*field, fi*field+field-1)
				}
				for i := 0; i < 64; i++ {
					offs = append(offs, rng.Uint64()%span)
				}
				for _, off := range offs {
					va := addr.VA(base + off)
					res := tb.Walk(va)
					fi := (uint64(va) % span) / field
					if pe[fi] == addr.NoPerm {
						if res.Outcome != WalkFault || res.Fault != FaultUnmapped {
							t.Fatalf("%d levels, %d fields, level-%d PE, va %#x: %v/%v, want an unmapped fault (field %d has no permission)",
								levels, fields, level, uint64(va), res.Outcome, res.Fault, fi)
						}
						continue
					}
					wantBase := addr.VA(uint64(va) / field * field)
					if res.Outcome != WalkPE || res.Perm != pe[fi] || res.MapBase != wantBase || res.MapSize != field || res.PA != addr.PA(va) {
						t.Fatalf("%d levels, %d fields, level-%d PE, va %#x: got %v perm %v base %#x size %#x pa %#x, want pe perm %v base %#x size %#x (field %d)",
							levels, fields, level, uint64(va), res.Outcome, res.Perm, uint64(res.MapBase), res.MapSize, uint64(res.PA),
							pe[fi], uint64(wantBase), field, fi)
					}
				}
			}
		}
		for level := 1; level <= 3; level++ {
			span := entrySpan(level)
			bound := maxPA / span
			for _, pfn := range []uint64{0, 1, uint64(rng.Int63n(int64(bound))), bound - 1, bound} {
				tb := MustNew(Config{Levels: levels})
				base := uint64(rng.Intn(EntriesPerNode/2)) << levelShift(levels)
				base += uint64(rng.Intn(EntriesPerNode)) * span
				if err := tb.Map(addr.VA(base), addr.PA(pfn*span), addr.ReadWrite, span); err != nil {
					t.Fatal(err)
				}
				for _, off := range []uint64{0, span - 1, rng.Uint64() % span, rng.Uint64() % span} {
					va := addr.VA(base + off)
					res := tb.Walk(va)
					if pfn >= bound {
						if res.Outcome != WalkFault || res.Fault != FaultCorrupt {
							t.Fatalf("%d levels, level-%d leaf, PFN %#x (bound %#x): %v/%v, want a corrupt fault",
								levels, level, pfn, bound, res.Outcome, res.Fault)
						}
						continue
					}
					wantPA := addr.PA(pfn*span + uint64(va)%span)
					wantBase := addr.VA(uint64(va) / span * span)
					if res.Outcome != WalkLeaf || res.PA != wantPA || res.Perm != addr.ReadWrite || res.MapBase != wantBase || res.MapSize != span {
						t.Fatalf("%d levels, level-%d leaf, PFN %#x, va %#x: got %v pa %#x perm %v base %#x size %#x, want leaf pa %#x base %#x size %#x",
							levels, level, pfn, uint64(va), res.Outcome, uint64(res.PA), res.Perm, uint64(res.MapBase), res.MapSize,
							uint64(wantPA), uint64(wantBase), span)
					}
				}
			}
		}
	}
}
