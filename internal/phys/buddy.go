// Package phys models physical memory for the DVM simulation.
//
// The central type is Memory, a simulated physical address space managed by
// a binary buddy allocator in the style of Linux's page allocator. Identity
// mapping (VA==PA, paper Section 4.3) depends on the OS being able to carve
// *contiguous* physical ranges eagerly at allocation time ("eager paging"),
// so the allocator supports arbitrarily large power-of-two blocks, trims the
// rounding excess immediately (as the paper's modified buddy allocator
// does), and exposes fragmentation statistics used by the Table 4
// (shbench) experiments.
package phys

import (
	"container/heap"
	"fmt"
	"math/bits"
	"sort"

	"github.com/dvm-sim/dvm/internal/addr"
)

// FrameSize is the base allocation granule: one 4 KB frame.
const FrameSize = addr.PageSize4K

// ErrOutOfMemory is returned when an allocation cannot be satisfied at all.
var ErrOutOfMemory = fmt.Errorf("phys: out of memory")

// ErrNoContiguous is returned when memory is available but no contiguous
// block is large enough — the situation that makes identity mapping fall
// back to demand paging.
var ErrNoContiguous = fmt.Errorf("phys: no contiguous block large enough")

// minHeap is a lazy-deletion min-heap of frame indexes used to hand out the
// lowest-addressed free block of each order first. Determinism matters: the
// whole simulation must be reproducible run to run.
type minHeap []uint64

func (h minHeap) Len() int            { return len(h) }
func (h minHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h minHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *minHeap) Push(x interface{}) { *h = append(*h, x.(uint64)) }
func (h *minHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// freeList tracks the free blocks of a single order. The heap may contain
// stale entries; the set map is authoritative.
type freeList struct {
	heap minHeap
	set  map[uint64]struct{}
}

func newFreeList() *freeList {
	return &freeList{set: make(map[uint64]struct{})}
}

func (f *freeList) add(frame uint64) {
	if _, ok := f.set[frame]; ok {
		return
	}
	f.set[frame] = struct{}{}
	heap.Push(&f.heap, frame)
}

func (f *freeList) remove(frame uint64) bool {
	if _, ok := f.set[frame]; !ok {
		return false
	}
	delete(f.set, frame)
	// Lazy deletion: the heap entry is skipped when popped.
	return true
}

// popMin removes and returns the lowest free block, or false if empty.
func (f *freeList) popMin() (uint64, bool) {
	for f.heap.Len() > 0 {
		frame := f.heap[0]
		if _, ok := f.set[frame]; !ok {
			heap.Pop(&f.heap) // stale
			continue
		}
		heap.Pop(&f.heap)
		delete(f.set, frame)
		return frame, true
	}
	return 0, false
}

func (f *freeList) len() int { return len(f.set) }

// Memory is a simulated physical memory managed by a binary buddy
// allocator. Block sizes are powers of two times FrameSize, from one frame
// (order 0) up to the whole memory.
//
// Memory is not safe for concurrent use; the simulation drives it from a
// single goroutine per simulated machine.
type Memory struct {
	size      uint64 // bytes, power-of-two multiple of FrameSize
	base      addr.PA
	frames    uint64
	maxOrder  uint8
	free      []*freeList      // indexed by order
	allocated map[uint64]uint8 // allocated block start frame -> order of the *block* as handed out
	freeBytes uint64

	// Statistics.
	allocCalls   uint64
	failedAllocs uint64
	splits       uint64
	merges       uint64
}

// NewMemory creates a physical memory of the given size in bytes, starting
// at physical address base. Size must be a power-of-two multiple of
// FrameSize and base must be frame-aligned. Real systems reserve low
// physical memory for firmware and the kernel; callers model that by
// passing a non-zero base (the OS model reserves the first 16 MB).
func NewMemory(base addr.PA, size uint64) (*Memory, error) {
	if size == 0 || !addr.IsAligned(size, FrameSize) {
		return nil, fmt.Errorf("phys: size %d is not a multiple of the frame size", size)
	}
	if !addr.IsAligned(uint64(base), FrameSize) {
		return nil, fmt.Errorf("phys: base %#x is not frame-aligned", uint64(base))
	}
	frames := size / FrameSize
	if bits.OnesCount64(frames) != 1 {
		return nil, fmt.Errorf("phys: size %d is not a power of two number of frames", size)
	}
	maxOrder := uint8(bits.TrailingZeros64(frames))
	m := &Memory{
		size:      size,
		base:      base,
		frames:    frames,
		maxOrder:  maxOrder,
		free:      make([]*freeList, maxOrder+1),
		allocated: make(map[uint64]uint8),
		freeBytes: size,
	}
	for i := range m.free {
		m.free[i] = newFreeList()
	}
	m.free[maxOrder].add(0)
	return m, nil
}

// MustNewMemory is NewMemory that panics on error; for tests and examples
// with constant-valid arguments.
func MustNewMemory(base addr.PA, size uint64) *Memory {
	m, err := NewMemory(base, size)
	if err != nil {
		panic(err)
	}
	return m
}

// Size returns the total capacity in bytes.
func (m *Memory) Size() uint64 { return m.size }

// Base returns the lowest physical address managed by this memory.
func (m *Memory) Base() addr.PA { return m.base }

// FreeBytes returns the number of unallocated bytes.
func (m *Memory) FreeBytes() uint64 { return m.freeBytes }

// UsedBytes returns the number of allocated bytes.
func (m *Memory) UsedBytes() uint64 { return m.size - m.freeBytes }

// orderFor returns the smallest order whose block size holds n bytes.
func orderFor(n uint64) uint8 {
	frames := (n + FrameSize - 1) / FrameSize
	if frames == 0 {
		frames = 1
	}
	o := uint8(bits.Len64(frames - 1))
	if frames == 1 {
		o = 0
	}
	return o
}

// BlockBytes returns the size in bytes of a block of the given order.
func BlockBytes(order uint8) uint64 { return FrameSize << order }

// frameToPA converts a frame index to a physical address.
func (m *Memory) frameToPA(frame uint64) addr.PA {
	return m.base + addr.PA(frame*FrameSize)
}

// paToFrame converts a physical address to a frame index.
func (m *Memory) paToFrame(pa addr.PA) (uint64, error) {
	if pa < m.base || pa >= m.base+addr.PA(m.size) {
		return 0, fmt.Errorf("phys: address %#x outside memory [%#x,%#x)", uint64(pa), uint64(m.base), uint64(m.base)+m.size)
	}
	off := uint64(pa - m.base)
	if !addr.IsAligned(off, FrameSize) {
		return 0, fmt.Errorf("phys: address %#x is not frame-aligned", uint64(pa))
	}
	return off / FrameSize, nil
}

// AllocContiguous allocates size bytes of physically contiguous memory and
// returns the range. The policy is address-ordered first fit over free
// *runs* (adjacent free blocks merged): unlike stock buddy allocation,
// which serves every request from an aligned power-of-two block and
// strands the rounding leftovers, the paper's eager-paging modifications
// pack contiguous allocations tightly — exactly ceil(size/4K) frames are
// taken from the lowest contiguous free run, which is what keeps identity
// mapping viable at 95%+ memory utilization (Table 4).
func (m *Memory) AllocContiguous(size uint64) (addr.PRange, error) {
	m.allocCalls++
	if size == 0 {
		return addr.PRange{}, fmt.Errorf("phys: zero-size allocation")
	}
	needFrames := (size + FrameSize - 1) / FrameSize
	needBytes := needFrames * FrameSize
	if needBytes > m.freeBytes {
		m.failedAllocs++
		return addr.PRange{}, ErrOutOfMemory
	}
	start, found := m.findFreeRun(needFrames, 1)
	if !found {
		m.failedAllocs++
		return addr.PRange{}, ErrNoContiguous
	}
	return m.allocAt(m.frameToPA(start), needBytes)
}

// AllocContiguousAligned is AllocContiguous with a start-address alignment
// requirement (a power of two). The OS aligns identity allocations to the
// Permission Entry field granule so whole table entries fold into PEs.
func (m *Memory) AllocContiguousAligned(size, align uint64) (addr.PRange, error) {
	m.allocCalls++
	if size == 0 {
		return addr.PRange{}, fmt.Errorf("phys: zero-size allocation")
	}
	if align < FrameSize {
		align = FrameSize
	}
	if !addr.IsAligned(align, FrameSize) || align&(align-1) != 0 {
		return addr.PRange{}, fmt.Errorf("phys: bad alignment %d", align)
	}
	needFrames := (size + FrameSize - 1) / FrameSize
	needBytes := needFrames * FrameSize
	if needBytes > m.freeBytes {
		m.failedAllocs++
		return addr.PRange{}, ErrOutOfMemory
	}
	start, found := m.findFreeRun(needFrames, align/FrameSize)
	if !found {
		m.failedAllocs++
		return addr.PRange{}, ErrNoContiguous
	}
	return m.allocAt(m.frameToPA(start), needBytes)
}

// recordAllocation remembers an allocated run [frame, frame+frames) as a set
// of power-of-two aligned blocks so Free can give them back to the buddy
// system. A run that is not a power of two is stored as its greedy
// decomposition into aligned blocks.
func (m *Memory) recordAllocation(frame, frames uint64) {
	delete(m.allocated, frame) // clear the provisional marker
	for frames > 0 {
		o := maxAlignedOrder(frame, frames)
		m.allocated[frame] = o
		sz := uint64(1) << o
		frame += sz
		frames -= sz
	}
}

// maxAlignedOrder returns the largest order o such that frame is aligned to
// 2^o and 2^o <= frames.
func maxAlignedOrder(frame, frames uint64) uint8 {
	var o uint8
	for {
		next := o + 1
		sz := uint64(1) << next
		if sz > frames {
			break
		}
		if frame&(sz-1) != 0 {
			break
		}
		o = next
	}
	return o
}

// freeTail returns frames [start, start+count) to the free lists without
// touching freeBytes accounting beyond adding the bytes back.
func (m *Memory) freeTail(start, count uint64) {
	frame := start
	remaining := count
	for remaining > 0 {
		o := maxAlignedOrder(frame, remaining)
		m.coalesceAndAdd(frame, o)
		sz := uint64(1) << o
		frame += sz
		remaining -= sz
	}
	m.freeBytes += count * FrameSize
}

// coalesceAndAdd inserts a free block and merges it with its buddy as far
// up as possible.
func (m *Memory) coalesceAndAdd(frame uint64, order uint8) {
	for order < m.maxOrder {
		buddy := frame ^ (uint64(1) << order)
		if !m.free[order].remove(buddy) {
			break
		}
		m.merges++
		if buddy < frame {
			frame = buddy
		}
		order++
	}
	m.free[order].add(frame)
}

// AllocFrame allocates a single 4 KB frame — the demand-paging path.
func (m *Memory) AllocFrame() (addr.PA, error) {
	r, err := m.AllocContiguous(FrameSize)
	if err != nil {
		return 0, err
	}
	return r.Start, nil
}

// AllocAt attempts to allocate the specific physically contiguous range
// [pa, pa+size). It is used by tests and by OS code that re-establishes
// identity mappings; it fails unless every frame in the range is free.
//
// The implementation is O(blocks) over the free lists: it repeatedly finds
// the free block containing the next needed frame and splits it.
func (m *Memory) AllocAt(pa addr.PA, size uint64) (addr.PRange, error) {
	m.allocCalls++
	return m.allocAt(pa, size)
}

// allocAt is AllocAt without the call-count increment, shared with the
// AllocContiguous paths (which already counted the call).
func (m *Memory) allocAt(pa addr.PA, size uint64) (addr.PRange, error) {
	if size == 0 {
		return addr.PRange{}, fmt.Errorf("phys: zero-size allocation")
	}
	startFrame, err := m.paToFrame(pa)
	if err != nil {
		m.failedAllocs++
		return addr.PRange{}, err
	}
	needFrames := (size + FrameSize - 1) / FrameSize
	if startFrame+needFrames > m.frames {
		m.failedAllocs++
		return addr.PRange{}, fmt.Errorf("phys: range %#x+%#x beyond memory end", uint64(pa), size)
	}
	// First verify the whole range is free, so failure has no side effects.
	for f := startFrame; f < startFrame+needFrames; {
		blk, order, ok := m.findFreeBlockContaining(f)
		if !ok {
			m.failedAllocs++
			return addr.PRange{}, fmt.Errorf("phys: frame %#x already allocated", f*FrameSize+uint64(m.base))
		}
		f = blk + (uint64(1) << order)
	}
	// Carve the frames out of their containing blocks.
	for f := startFrame; f < startFrame+needFrames; {
		blk, order, _ := m.findFreeBlockContaining(f)
		m.free[order].remove(blk)
		blkEnd := blk + (uint64(1) << order)
		// Return the portions of the block outside [startFrame, start+need).
		if blk < startFrame {
			m.freeBytes -= (startFrame - blk) * FrameSize // freeTail will re-add
			m.freeTail(blk, startFrame-blk)
		}
		rangeEnd := startFrame + needFrames
		if blkEnd > rangeEnd {
			m.freeBytes -= (blkEnd - rangeEnd) * FrameSize
			m.freeTail(rangeEnd, blkEnd-rangeEnd)
		}
		f = blkEnd
	}
	m.freeBytes -= needFrames * FrameSize
	m.recordAllocation(startFrame, needFrames)
	return addr.PRange{Start: pa, Size: needFrames * FrameSize}, nil
}

// findFreeBlockContaining returns the free block (start frame, order) that
// contains frame f, if any.
func (m *Memory) findFreeBlockContaining(f uint64) (uint64, uint8, bool) {
	for o := uint8(0); o <= m.maxOrder; o++ {
		blk := f &^ ((uint64(1) << o) - 1)
		if _, ok := m.free[o].set[blk]; ok {
			return blk, o, true
		}
	}
	return 0, 0, false
}

// Free releases a previously allocated range. The range must exactly match
// a prior AllocContiguous/AllocAt result (same start, same rounded size).
func (m *Memory) Free(r addr.PRange) error {
	startFrame, err := m.paToFrame(r.Start)
	if err != nil {
		return err
	}
	frames := (r.Size + FrameSize - 1) / FrameSize
	// Verify the recorded decomposition covers exactly this run.
	f := startFrame
	remaining := frames
	var blocks []struct {
		frame uint64
		order uint8
	}
	for remaining > 0 {
		o, ok := m.allocated[f]
		if !ok {
			return fmt.Errorf("phys: Free(%v): frame %#x not allocated here", r, f)
		}
		sz := uint64(1) << o
		if sz > remaining {
			return fmt.Errorf("phys: Free(%v): allocation decomposition mismatch", r)
		}
		blocks = append(blocks, struct {
			frame uint64
			order uint8
		}{f, o})
		f += sz
		remaining -= sz
	}
	for _, b := range blocks {
		delete(m.allocated, b.frame)
		m.coalesceAndAdd(b.frame, b.order)
	}
	m.freeBytes += frames * FrameSize
	return nil
}

// findFreeRun searches for the lowest contiguous run of free frames that
// contains an alignFrames-aligned start followed by needFrames free
// frames, possibly spanning multiple buddy blocks.
func (m *Memory) findFreeRun(needFrames, alignFrames uint64) (uint64, bool) {
	type blk struct{ start, frames uint64 }
	var blocks []blk
	for o, fl := range m.free {
		for f := range fl.set {
			blocks = append(blocks, blk{f, uint64(1) << uint(o)})
		}
	}
	if len(blocks) == 0 {
		return 0, false
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].start < blocks[j].start })
	fits := func(runStart, runLen uint64) (uint64, bool) {
		start := addr.AlignUp(runStart, alignFrames)
		if start >= runStart+runLen {
			return 0, false
		}
		if runStart+runLen-start >= needFrames {
			return start, true
		}
		return 0, false
	}
	runStart, runLen := blocks[0].start, blocks[0].frames
	if s, ok := fits(runStart, runLen); ok {
		return s, true
	}
	for _, b := range blocks[1:] {
		if b.start == runStart+runLen {
			runLen += b.frames
		} else {
			runStart, runLen = b.start, b.frames
		}
		if s, ok := fits(runStart, runLen); ok {
			return s, true
		}
	}
	return 0, false
}

// findAllocatedBlockContaining returns the allocated block (start frame,
// order) containing frame f, if any.
func (m *Memory) findAllocatedBlockContaining(f uint64) (uint64, uint8, bool) {
	for o := uint8(0); o <= m.maxOrder; o++ {
		blk := f &^ ((uint64(1) << o) - 1)
		if ord, ok := m.allocated[blk]; ok && f < blk+(uint64(1)<<ord) {
			return blk, ord, true
		}
	}
	return 0, 0, false
}

// FreeRange releases an arbitrary frame-aligned sub-range of previously
// allocated memory. Unlike Free, the range need not match an allocation's
// original decomposition: allocated blocks overlapping the range are split,
// the inside portion is returned to the buddy system and the outside
// portions stay allocated. The OS uses this to free single demand-paged
// frames and identity segments that LoadProgram split out of one block.
func (m *Memory) FreeRange(r addr.PRange) error {
	startFrame, err := m.paToFrame(r.Start)
	if err != nil {
		return err
	}
	if r.Size == 0 || !addr.IsAligned(r.Size, FrameSize) {
		return fmt.Errorf("phys: FreeRange size %#x not frame-aligned", r.Size)
	}
	endFrame := startFrame + r.Size/FrameSize
	if endFrame > m.frames {
		return fmt.Errorf("phys: FreeRange %v beyond memory end", r)
	}
	// Pass 1: verify full coverage so failure has no side effects.
	for f := startFrame; f < endFrame; {
		blk, ord, ok := m.findAllocatedBlockContaining(f)
		if !ok {
			return fmt.Errorf("phys: FreeRange(%v): frame %#x not allocated", r, f)
		}
		f = blk + (uint64(1) << ord)
	}
	// Pass 2: carve.
	for f := startFrame; f < endFrame; {
		blk, ord, _ := m.findAllocatedBlockContaining(f)
		blkEnd := blk + (uint64(1) << ord)
		delete(m.allocated, blk)
		if blk < startFrame {
			m.recordAllocationAt(blk, startFrame-blk)
		}
		if blkEnd > endFrame {
			m.recordAllocationAt(endFrame, blkEnd-endFrame)
		}
		inStart := blk
		if inStart < startFrame {
			inStart = startFrame
		}
		inEnd := blkEnd
		if inEnd > endFrame {
			inEnd = endFrame
		}
		m.freeTail(inStart, inEnd-inStart) // freeTail credits freeBytes
		f = blkEnd
	}
	return nil
}

// recordAllocationAt stores the greedy power-of-two decomposition of
// [frame, frame+frames) in the allocated map (like recordAllocation, but
// without clearing a provisional marker).
func (m *Memory) recordAllocationAt(frame, frames uint64) {
	for frames > 0 {
		o := maxAlignedOrder(frame, frames)
		m.allocated[frame] = o
		sz := uint64(1) << o
		frame += sz
		frames -= sz
	}
}

// LargestFreeBlock returns the size in bytes of the largest contiguous free
// block — the headline fragmentation metric.
func (m *Memory) LargestFreeBlock() uint64 {
	for o := int(m.maxOrder); o >= 0; o-- {
		if m.free[o].len() > 0 {
			return BlockBytes(uint8(o))
		}
	}
	return 0
}

// Stats is a snapshot of allocator health, used by the shbench experiments.
type Stats struct {
	TotalBytes       uint64
	FreeBytes        uint64
	UsedBytes        uint64
	LargestFreeBlock uint64
	// FreeBlocksByOrder[o] is the number of free blocks of order o.
	FreeBlocksByOrder []int
	AllocCalls        uint64
	FailedAllocs      uint64
	Splits            uint64
	Merges            uint64
}

// Snapshot returns current allocator statistics.
func (m *Memory) Snapshot() Stats {
	byOrder := make([]int, m.maxOrder+1)
	for o, fl := range m.free {
		byOrder[o] = fl.len()
	}
	return Stats{
		TotalBytes:        m.size,
		FreeBytes:         m.freeBytes,
		UsedBytes:         m.size - m.freeBytes,
		LargestFreeBlock:  m.LargestFreeBlock(),
		FreeBlocksByOrder: byOrder,
		AllocCalls:        m.allocCalls,
		FailedAllocs:      m.failedAllocs,
		Splits:            m.splits,
		Merges:            m.merges,
	}
}

// CheckInvariants verifies internal consistency: free lists are disjoint,
// aligned, inside memory, and free+allocated bytes equal the total. It is
// called by tests (including property-based tests) after mutation
// sequences.
func (m *Memory) CheckInvariants() error {
	seen := make(map[uint64]uint8) // frame -> order of free block covering it
	var freeFrames uint64
	for o, fl := range m.free {
		for frame := range fl.set {
			sz := uint64(1) << uint(o)
			if frame&(sz-1) != 0 {
				return fmt.Errorf("free block %#x order %d misaligned", frame, o)
			}
			if frame+sz > m.frames {
				return fmt.Errorf("free block %#x order %d beyond end", frame, o)
			}
			for f := frame; f < frame+sz; f++ {
				if po, dup := seen[f]; dup {
					return fmt.Errorf("frame %#x in two free blocks (orders %d, %d)", f, po, o)
				}
				seen[f] = uint8(o)
			}
			freeFrames += sz
		}
	}
	if freeFrames*FrameSize != m.freeBytes {
		return fmt.Errorf("freeBytes %d != free-list frames %d*%d", m.freeBytes, freeFrames, FrameSize)
	}
	var allocFrames uint64
	for frame, o := range m.allocated {
		sz := uint64(1) << o
		for f := frame; f < frame+sz; f++ {
			if _, dup := seen[f]; dup {
				return fmt.Errorf("frame %#x both free and allocated", f)
			}
		}
		allocFrames += sz
	}
	if (allocFrames+freeFrames)*FrameSize != m.size {
		return fmt.Errorf("allocated %d + free %d frames != total %d", allocFrames, freeFrames, m.frames)
	}
	return nil
}
