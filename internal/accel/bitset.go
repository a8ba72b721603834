package accel

// bitset is a fixed-capacity bit vector used for the engines' touched
// marks: 1 bit per vertex instead of the 1 byte of a []bool, so the
// per-engine frontier bookkeeping footprint is V/8 bytes. Only
// membership moves to the bitset — the touched *list* stays an ordered
// []int32, because its order is the canonical activation order the
// timing replay depends on.
type bitset []uint64

// newBitset returns a cleared bitset able to hold n bits, drawn from
// the buffer pool.
func newBitset(n int) bitset {
	b := poolU64.get((n + 63) >> 6)
	for i := range b {
		b[i] = 0
	}
	return b
}

// release returns the bitset's storage to the pool.
func (b bitset) release() { poolU64.put(b) }

func (b bitset) get(i int32) bool {
	return b[uint32(i)>>6]>>(uint32(i)&63)&1 != 0
}

func (b bitset) set(i int32) {
	b[uint32(i)>>6] |= 1 << (uint32(i) & 63)
}

func (b bitset) clear(i int32) {
	b[uint32(i)>>6] &^= 1 << (uint32(i) & 63)
}
