// Package graph provides the graph substrate for the DVM evaluation: CSR
// graph storage, the graph500 R-MAT generator used for the paper's
// synthetic inputs, the bipartite-graph synthesis of Satish et al. used for
// the collaborative-filtering inputs, and a registry of the seven datasets
// of the paper's Table 3 with both paper-scale and scaled-down sizes.
//
// Real datasets (Flickr, Wikipedia, LiveJournal from the UF sparse
// collection; the Netflix Prize data) are not redistributable, so each is
// substituted by an R-MAT graph with matched vertex/edge counts — the
// TLB/AVC behaviour the paper measures depends on footprint and
// irregularity, both of which R-MAT's skewed degree distribution
// reproduces. The substitution is recorded in DESIGN.md.
package graph

import (
	"fmt"
	"math"
	"sync"

	"github.com/dvm-sim/dvm/internal/runner"
)

// Graph is a directed graph in compressed-sparse-row form, optionally
// bipartite (users × items) for collaborative filtering.
type Graph struct {
	// Name identifies the dataset instance.
	Name string
	// V is the number of vertices. For bipartite graphs vertices
	// [0,Users) are users and [Users, Users+Items) are items.
	V int
	// RowPtr has V+1 entries; edges of vertex v are
	// Col[RowPtr[v]:RowPtr[v+1]].
	RowPtr []uint64
	// Col holds destination vertex ids.
	Col []uint32
	// Weight holds per-edge weights (SSSP distances, CF ratings).
	Weight []float32
	// Bipartite marks user→item graphs.
	Bipartite bool
	// Users and Items partition V when Bipartite.
	Users, Items int

	// mapped, when non-nil, is the read-only file mapping the CSR
	// slices alias (see OpenMMap); released by Close.
	mapped []byte
}

// E returns the edge count.
func (g *Graph) E() int { return len(g.Col) }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v int) int {
	return int(g.RowPtr[v+1] - g.RowPtr[v])
}

// Edges calls fn for every edge (src, dst, weight); fn returning false
// stops the iteration. Weightless graphs (nil Weight) report weight 0
// for every edge.
func (g *Graph) Edges(fn func(src, dst int, w float32) bool) {
	for v := 0; v < g.V; v++ {
		for i := g.RowPtr[v]; i < g.RowPtr[v+1]; i++ {
			var w float32
			if g.Weight != nil {
				w = g.Weight[i]
			}
			if !fn(v, int(g.Col[i]), w) {
				return
			}
		}
	}
}

// Validate checks structural invariants.
func (g *Graph) Validate() error {
	if len(g.RowPtr) != g.V+1 {
		return fmt.Errorf("graph: RowPtr length %d != V+1 (%d)", len(g.RowPtr), g.V+1)
	}
	if g.RowPtr[0] != 0 || g.RowPtr[g.V] != uint64(len(g.Col)) {
		return fmt.Errorf("graph: RowPtr bounds wrong")
	}
	for v := 0; v < g.V; v++ {
		if g.RowPtr[v] > g.RowPtr[v+1] {
			return fmt.Errorf("graph: RowPtr not monotone at %d", v)
		}
	}
	if g.Weight != nil && len(g.Weight) != len(g.Col) {
		return fmt.Errorf("graph: Weight length %d != Col length %d", len(g.Weight), len(g.Col))
	}
	for i, c := range g.Col {
		if int(c) >= g.V {
			return fmt.Errorf("graph: edge %d targets %d >= V=%d", i, c, g.V)
		}
	}
	if g.Bipartite {
		if g.Users+g.Items != g.V {
			return fmt.Errorf("graph: users %d + items %d != V %d", g.Users, g.Items, g.V)
		}
		for v := 0; v < g.Users; v++ {
			for i := g.RowPtr[v]; i < g.RowPtr[v+1]; i++ {
				if int(g.Col[i]) < g.Users {
					return fmt.Errorf("graph: bipartite edge %d→%d stays in user partition", v, g.Col[i])
				}
			}
		}
	}
	return nil
}

// edgeTuple is the paper's edge representation: (srcid, dstid, weight).
type edgeTuple struct {
	src, dst uint32
	w        float32
}

// parallelEdgeMin is the edge count below which the CSR build stays
// sequential: the per-worker count arrays and goroutine startup only pay
// off on multi-million-edge lists. A variable so tests can force the
// parallel path on tiny inputs.
var parallelEdgeMin = 1 << 17

// csrCountBudget bounds the memory the parallel build spends on
// per-worker count arrays (workers * V * 4 bytes).
const csrCountBudget = 256 << 20

// fromEdges builds a CSR graph from an edge list with a stable counting
// sort: edges keep their list order within each source's adjacency run.
// When b has free workers and the list is large, the sort runs as a
// parallel stable counting sort over contiguous edge blocks — provably
// the same output (see fromEdgesParallel), so generated datasets are
// bit-identical at every worker count.
func fromEdges(name string, v int, edges []edgeTuple, bipartite bool, users, items int, b *runner.Budget) *Graph {
	g := &Graph{
		Name:      name,
		V:         v,
		RowPtr:    make([]uint64, v+1),
		Col:       make([]uint32, len(edges)),
		Weight:    make([]float32, len(edges)),
		Bipartite: bipartite,
		Users:     users,
		Items:     items,
	}
	// The parallel path keeps cursors as uint32, so huge edge lists (and
	// graphs too small to amortize the fan-out) take the plain path.
	if v > 0 && len(edges) >= parallelEdgeMin && uint64(len(edges)) < math.MaxUint32 {
		maxExtra := csrCountBudget/(4*v) - 1
		if maxExtra > 31 {
			maxExtra = 31
		}
		if extra := b.TryAcquire(maxExtra); extra > 0 {
			fromEdgesParallel(g, edges, extra+1)
			b.Release(extra)
			return g
		}
	}
	for _, e := range edges {
		g.RowPtr[e.src+1]++
	}
	for i := 0; i < v; i++ {
		g.RowPtr[i+1] += g.RowPtr[i]
	}
	cursor := make([]uint64, v)
	copy(cursor, g.RowPtr[:v])
	for _, e := range edges {
		i := cursor[e.src]
		cursor[e.src]++
		g.Col[i] = e.dst
		g.Weight[i] = e.w
	}
	return g
}

// fromEdgesParallel fills g's CSR arrays from edges using `workers`
// goroutines and a stable blocked counting sort. Equivalence to the
// sequential sort: the edge list is split into `workers` contiguous
// blocks; block w scatters its edges of source s into
// [RowPtr[s] + counts of s in blocks < w, ...) in block order — exactly
// the positions the sequential pass assigns, since all of block w's
// edges precede block w+1's in list order. No worker writes outside its
// own cursor ranges, so the scatter needs no locks.
func fromEdgesParallel(g *Graph, edges []edgeTuple, workers int) {
	v := g.V
	counts := make([][]uint32, workers)
	bounds := make([]int, workers+1)
	for w := 1; w < workers; w++ {
		bounds[w] = w * len(edges) / workers
	}
	bounds[workers] = len(edges)

	// Pass 1: per-block source counting, one private array per worker.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := make([]uint32, v)
			for _, e := range edges[bounds[w]:bounds[w+1]] {
				c[e.src]++
			}
			counts[w] = c
		}(w)
	}
	wg.Wait()

	// Per-source totals (parallel over vertex ranges)...
	chunk := (v + workers - 1) / workers
	forChunks := func(fn func(lo, hi int)) {
		for w := 0; w < workers; w++ {
			lo, hi := w*chunk, (w+1)*chunk
			if hi > v {
				hi = v
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				fn(lo, hi)
			}(lo, hi)
		}
		wg.Wait()
	}
	forChunks(func(lo, hi int) {
		for s := lo; s < hi; s++ {
			var t uint64
			for w := 0; w < workers; w++ {
				t += uint64(counts[w][s])
			}
			g.RowPtr[s+1] = t
		}
	})
	// ...then the sequential prefix sum (O(V), the only serial stage)...
	for i := 0; i < v; i++ {
		g.RowPtr[i+1] += g.RowPtr[i]
	}
	// ...and the count→cursor conversion: counts[w][s] becomes block w's
	// first slot of source s's adjacency run.
	forChunks(func(lo, hi int) {
		for s := lo; s < hi; s++ {
			run := uint32(g.RowPtr[s])
			for w := 0; w < workers; w++ {
				c := counts[w][s]
				counts[w][s] = run
				run += c
			}
		}
	})

	// Pass 2: each block scatters into its own precomputed slots.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cur := counts[w]
			for _, e := range edges[bounds[w]:bounds[w+1]] {
				i := cur[e.src]
				cur[e.src]++
				g.Col[i] = e.dst
				g.Weight[i] = e.w
			}
		}(w)
	}
	wg.Wait()
}

// RMATConfig parameterizes the graph500 recursive-matrix generator.
type RMATConfig struct {
	// Scale: the graph has 2^Scale vertices.
	Scale int
	// EdgeFactor: edges = EdgeFactor * vertices (graph500 default 16).
	EdgeFactor int
	// A, B, C are the R-MAT quadrant probabilities (graph500 defaults
	// 0.57, 0.19, 0.19; D = 1-A-B-C).
	A, B, C float64
	// Seed makes generation reproducible.
	Seed int64
	// Workers, when non-nil, lends extra workers to the CSR build (the
	// edge RNG stream stays sequential, so the generated graph is
	// bit-identical at any worker count; only wall-clock changes).
	Workers *runner.Budget
}

// DefaultRMAT returns the graph500 parameters at the given scale.
func DefaultRMAT(scale int, seed int64) RMATConfig {
	return RMATConfig{Scale: scale, EdgeFactor: 16, A: 0.57, B: 0.19, C: 0.19, Seed: seed}
}

// validate checks the parameters both generators share: the scale and
// the quadrant probabilities. The negated comparisons also reject NaN,
// so an accepted config always has 0 < A <= A+B <= A+B+C < 1, the
// order the branch-free descent relies on.
func (cfg RMATConfig) validate() error {
	if cfg.Scale < 1 || cfg.Scale > 30 {
		return fmt.Errorf("graph: RMAT scale %d out of range [1,30]", cfg.Scale)
	}
	if !(cfg.A > 0) || !(cfg.B >= 0) || !(cfg.C >= 0) || !(cfg.A+cfg.B+cfg.C < 1) {
		return fmt.Errorf("graph: bad RMAT probabilities %v/%v/%v", cfg.A, cfg.B, cfg.C)
	}
	return nil
}

// GenerateRMAT builds an R-MAT graph. Self loops are permitted (as in
// graph500); duplicate edges are kept, matching the generator's behaviour.
// Edge weights are uniform in [1, 64) for SSSP.
func GenerateRMAT(cfg RMATConfig) (*Graph, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.EdgeFactor < 1 {
		return nil, fmt.Errorf("graph: edge factor %d < 1", cfg.EdgeFactor)
	}
	v := 1 << cfg.Scale
	e := v * cfg.EdgeFactor
	rng := newSource(cfg.Seed)
	edges := make([]edgeTuple, e)
	for i := range edges {
		src, dst := rmatEdge(rng, cfg)
		edges[i] = edgeTuple{src: src, dst: dst, w: 1 + 63*rng.Float32()}
	}
	g := fromEdges(fmt.Sprintf("rmat-%d", cfg.Scale), v, edges, false, 0, 0, cfg.Workers)
	return g, nil
}

// rmatEdge draws one edge by recursive quadrant descent: one Float64
// per bit, most significant bit first. Each draw r picks a quadrant from
// three threshold tests x1 = r >= A, x2 = r >= A+B, x3 = r >= A+B+C.
// The thresholds are summed in the order the probabilities are listed,
// and a validated config has them ordered, so (x1, x2, x3) is 000, 100,
// 110 or 111, and the quadrant is src = x2, dst = x1^x2^x3: top-left
// (0,0), top-right (0,1), bottom-left (1,0), bottom-right (1,1). The
// tests compile to flag sets, not branches; with graph500's 57/19/19/5
// split a branch on r is close to random and mispredicts on most bits.
func rmatEdge(rng *source, cfg RMATConfig) (src, dst uint32) {
	a, ab := cfg.A, cfg.A+cfg.B
	abc := ab + cfg.C
	for i := 0; i < cfg.Scale; i++ {
		r := rng.Float64()
		x1, x2, x3 := bit(r >= a), bit(r >= ab), bit(r >= abc)
		src = src<<1 | x2
		dst = dst<<1 | (x1 ^ x2 ^ x3)
	}
	return src, dst
}

// bit is b as 0 or 1; the compiler lowers it to a flag set.
func bit(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// BipartiteConfig parameterizes synthetic user→item rating graphs,
// following the conversion Satish et al. applied to R-MAT graphs for
// collaborative-filtering benchmarks.
type BipartiteConfig struct {
	Users, Items int
	// Edges is the number of ratings.
	Edges int
	// Skew is the R-MAT scale used to draw the skewed user/item indexes.
	Skew RMATConfig
	// Workers lends extra workers to the CSR build (see
	// RMATConfig.Workers; the rating RNG stream stays sequential).
	Workers *runner.Budget
}

// GenerateBipartite builds a user→item graph: each R-MAT edge's endpoints
// are folded onto the user and item ranges, giving the power-law activity
// distribution of real rating data. Ratings are uniform in [1,5].
func GenerateBipartite(cfg BipartiteConfig) (*Graph, error) {
	if cfg.Users < 1 || cfg.Items < 1 || cfg.Edges < 1 {
		return nil, fmt.Errorf("graph: bad bipartite shape %d users, %d items, %d edges", cfg.Users, cfg.Items, cfg.Edges)
	}
	if cfg.Skew.Scale == 0 {
		cfg.Skew = DefaultRMAT(sizeScale(cfg.Users), cfg.Skew.Seed)
	}
	if err := cfg.Skew.validate(); err != nil {
		return nil, err
	}
	rng := newSource(cfg.Skew.Seed)
	edges := make([]edgeTuple, cfg.Edges)
	for i := range edges {
		s, d := rmatEdge(rng, cfg.Skew)
		u := uint32(int(s) % cfg.Users)
		m := uint32(cfg.Users + int(d)%cfg.Items)
		edges[i] = edgeTuple{src: u, dst: m, w: float32(1 + rng.Intn(5))}
	}
	v := cfg.Users + cfg.Items
	g := fromEdges(fmt.Sprintf("bipartite-%dx%d", cfg.Users, cfg.Items), v, edges, true, cfg.Users, cfg.Items, cfg.Workers)
	return g, nil
}

// sizeScale returns ceil(log2(n)).
func sizeScale(n int) int {
	s := 0
	for 1<<s < n {
		s++
	}
	if s == 0 {
		s = 1
	}
	return s
}
