package accel

import (
	"math/bits"
	"sync"
)

// Pooled V-proportional engine buffers. A mode-matrix sweep assembles
// and discards many engines over the same graph (15 cells × up to 9
// modes), and each engine used to allocate fresh temps / touched-mark /
// apply-list arrays — garbage proportional to V per engine. The pools
// below recycle those arrays across engines in
// power-of-two size classes, so steady-state sweep footprint is one
// engine-set of scratch per live engine instead of per engine ever
// created. Contents are undefined at get: every consumer fully
// initializes what it takes (newBitset clears).
//
// Pooling never changes results — the arrays hold functional state that
// is value-initialized identically either way; only allocation traffic
// changes.

const (
	poolClasses  = 40
	poolPerClass = 4 // buffers retained per class; excess returns to the GC
)

type slicePool[T any] struct {
	mu      sync.Mutex
	classes [poolClasses][][]T
}

// class returns the pool class for a request of n elements: the
// smallest c with 1<<c >= n.
func poolClass(n int) int { return bits.Len(uint(n - 1)) }

// get returns a length-n slice with power-of-two capacity, recycled
// when the class has a free buffer. Contents are undefined.
func (p *slicePool[T]) get(n int) []T {
	if n <= 0 {
		return nil
	}
	c := poolClass(n)
	p.mu.Lock()
	if l := len(p.classes[c]); l > 0 {
		s := p.classes[c][l-1]
		p.classes[c][l-1] = nil
		p.classes[c] = p.classes[c][:l-1]
		p.mu.Unlock()
		return s[:n]
	}
	p.mu.Unlock()
	return make([]T, n, 1<<c)
}

// put recycles a slice previously obtained from get. Slices with
// non-power-of-two capacity (not pool-born) and overfull classes are
// dropped for the GC; put(nil) is a no-op.
func (p *slicePool[T]) put(s []T) {
	n := cap(s)
	if n == 0 || n&(n-1) != 0 {
		return
	}
	c := poolClass(n)
	p.mu.Lock()
	if len(p.classes[c]) < poolPerClass {
		p.classes[c] = append(p.classes[c], s[:0])
	}
	p.mu.Unlock()
}

var (
	poolF64 slicePool[float64]
	poolI32 slicePool[int32]
	poolU64 slicePool[uint64]
)
