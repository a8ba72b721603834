package accel

import (
	"math/bits"
	"sync"
)

// Pooled V-proportional engine buffers. A mode-matrix sweep assembles
// and discards many engines over the same graph (15 cells × up to 9
// modes). The pools below recycle every V-sized array an engine uses,
// in power-of-two size classes:
//
//   - float64: props (until Release) and temps;
//   - int32: the frontier, the next-frontier buffer it ping-pongs with,
//     the touched list, the per-PE activation arena and the
//     all-vertices apply list;
//   - uint64: the touched-mark bitset.
//
// Each is taken at the capacity its contents can never exceed, so no
// append in a run regrows one, and a run that ends with Release leaves
// no garbage that grows with V: steady-state sweep footprint is one
// engine-set of scratch per live engine instead of per engine ever
// created. Contents are undefined at get: every consumer fully
// initializes what it takes (newBitset clears, the list buffers start
// empty, props and temps are filled, the frontier is copied in).
//
// Pooling never changes results — the arrays hold functional state that
// is value-initialized identically either way; only allocation traffic
// changes.

// poolPerClass is how many free buffers a class keeps; a put beyond it
// leaves the buffer to the GC. One engine holds up to four int32
// buffers of its V's class (frontier, next frontier, touched list,
// activation arena) and two float64 ones, so four is the least that
// lets a sequential sweep hand the next engine one engine's full set.
// Eight keeps two full sets, for two workers running graphs of the same
// class. A class never keeps more free buffers than it once had out at
// the same time, so it holds no more than the sweep's own peak in it.
const poolPerClass = 8

const poolClasses = 40

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
