package accel

import (
	"fmt"

	"github.com/dvm-sim/dvm/internal/addr"
	"github.com/dvm-sim/dvm/internal/graph"
	"github.com/dvm-sim/dvm/internal/osmodel"
)

// EdgeBytes is the in-memory size of one edge tuple (srcid, dstid, weight):
// two 4-byte ids and a 4-byte weight, the paper's 3-tuple representation.
const EdgeBytes = 12

// IndexBytes is one entry of the edge-index (CSR row pointer) array.
const IndexBytes = 8

// Layout is the shared-heap placement of a workload's data structures, as
// the host application would allocate them before offloading to the
// accelerator. All addresses are virtual; under DVM they are (almost
// always) also physical.
type Layout struct {
	// VertexProp is the base of the vertex property array (V entries of
	// Program.PropBytes).
	VertexProp addr.VA
	// TempProp is the base of the temporary (reduce target) property
	// array, same shape as VertexProp.
	TempProp addr.VA
	// EdgeIndex is the base of the V+1-entry edge index array.
	EdgeIndex addr.VA
	// Edges is the base of the edge-tuple array (E entries of EdgeBytes).
	Edges addr.VA
	// Frontier is the base of the active-vertex list (V 4-byte entries).
	Frontier addr.VA
	// PropBytes echoes the program's property size.
	PropBytes uint64
	// HeapBytes is the total allocated footprint.
	HeapBytes uint64
	// IdentityMapped reports whether every region was identity mapped.
	IdentityMapped bool
}

// BuildLayout is BuildShapeLayout for g's shape.
func BuildLayout(p *osmodel.Process, g *graph.Graph, propBytes uint64) (Layout, error) {
	return BuildShapeLayout(p, g.V, g.E(), propBytes)
}

// BuildShapeLayout allocates the arrays of a workload with v vertices and
// e edges in the process's address space (identity mapped when the
// process policy allows) and returns their placement. The layout reads
// nothing but the shape, so it needs no graph. The arrays are "touched"
// so demand-paged fallbacks are backed, as the host would populate them
// before offloading.
func BuildShapeLayout(p *osmodel.Process, v, e int, propBytes uint64) (Layout, error) {
	if propBytes == 0 {
		return Layout{}, fmt.Errorf("accel: propBytes must be positive")
	}
	lay := Layout{PropBytes: propBytes, IdentityMapped: true}
	alloc := func(size uint64, perm addr.Perm) (addr.VA, error) {
		if size == 0 {
			// Edgeless graphs have no edge array; nothing to map.
			return 0, nil
		}
		r, ident, err := p.Mmap(size, perm)
		if err != nil {
			return 0, err
		}
		if !ident {
			lay.IdentityMapped = false
			// Demand-paged fallback: populate now, as the host
			// writing the data would — through a writable mapping,
			// then drop to the requested permission (the loader's
			// mmap + populate + mprotect sequence). Read-only
			// segments cannot be populated through their final
			// permission.
			if perm != addr.ReadWrite {
				if err := p.Mprotect(r, addr.ReadWrite); err != nil {
					return 0, err
				}
			}
			if err := p.TouchRange(r, addr.Write); err != nil {
				return 0, err
			}
			if perm != addr.ReadWrite {
				if err := p.Mprotect(r, perm); err != nil {
					return 0, err
				}
			}
		}
		lay.HeapBytes += r.Size
		return r.Start, nil
	}
	nv, ne := uint64(v), uint64(e)
	var err error
	if lay.VertexProp, err = alloc(nv*propBytes, addr.ReadWrite); err != nil {
		return lay, err
	}
	if lay.TempProp, err = alloc(nv*propBytes, addr.ReadWrite); err != nil {
		return lay, err
	}
	if lay.EdgeIndex, err = alloc((nv+1)*IndexBytes, addr.ReadOnly); err != nil {
		return lay, err
	}
	if lay.Edges, err = alloc(ne*EdgeBytes, addr.ReadOnly); err != nil {
		return lay, err
	}
	if lay.Frontier, err = alloc(nv*4, addr.ReadWrite); err != nil {
		return lay, err
	}
	return lay, nil
}

// Addresses of individual elements.

// VertexPropAddr returns the address of vertex v's property.
func (l *Layout) VertexPropAddr(v int32) addr.VA {
	return l.VertexProp + addr.VA(uint64(v)*l.PropBytes)
}

// TempPropAddr returns the address of vertex v's temporary property.
func (l *Layout) TempPropAddr(v int32) addr.VA {
	return l.TempProp + addr.VA(uint64(v)*l.PropBytes)
}

// EdgeIndexAddr returns the address of vertex v's edge-index entry.
func (l *Layout) EdgeIndexAddr(v int32) addr.VA {
	return l.EdgeIndex + addr.VA(uint64(v)*IndexBytes)
}

// EdgeAddr returns the address of edge i's tuple.
func (l *Layout) EdgeAddr(i uint64) addr.VA {
	return l.Edges + addr.VA(i*EdgeBytes)
}

// FrontierAddr returns the address of frontier slot i.
func (l *Layout) FrontierAddr(i int) addr.VA {
	return l.Frontier + addr.VA(uint64(i)*4)
}
