package graph

import (
	"fmt"
	"math"
	"strings"

	"github.com/dvm-sim/dvm/internal/runner"
)

// DatasetSpec describes one input of the paper's Table 3.
type DatasetSpec struct {
	// Name is the paper's abbreviation (FR, Wiki, LJ, S24, NF, Bip1, Bip2).
	Name string
	// FullName is the dataset's origin.
	FullName string
	// Vertices and Edges are the paper-scale sizes.
	Vertices, Edges int
	// Bipartite datasets additionally split vertices into Users/Items.
	Bipartite    bool
	Users, Items int
	// HeapBytes is the paper-reported workload heap footprint.
	HeapBytes uint64
}

// Datasets is the registry of Table 3, in the paper's order.
var Datasets = []DatasetSpec{
	{Name: "FR", FullName: "Flickr (UF sparse collection)", Vertices: 820_000, Edges: 9_840_000, HeapBytes: 288 << 20},
	{Name: "Wiki", FullName: "Wikipedia (UF sparse collection)", Vertices: 3_560_000, Edges: 84_750_000, HeapBytes: 1293 << 20},
	{Name: "LJ", FullName: "LiveJournal (UF sparse collection)", Vertices: 4_840_000, Edges: 68_990_000, HeapBytes: 2202 << 20},
	{Name: "S24", FullName: "RMAT Scale 24 (graph500)", Vertices: 1 << 24, Edges: 16 << 24, HeapBytes: 6953 << 20},
	{Name: "NF", FullName: "Netflix Prize", Vertices: 498_000, Edges: 99_070_000, Bipartite: true, Users: 480_000, Items: 18_000, HeapBytes: 2447 << 20},
	{Name: "Bip1", FullName: "Synthetic Bipartite 1 (Satish et al.)", Vertices: 1_069_000, Edges: 53_820_000, Bipartite: true, Users: 969_000, Items: 100_000, HeapBytes: 1362 << 20},
	{Name: "Bip2", FullName: "Synthetic Bipartite 2 (Satish et al.)", Vertices: 3_000_000, Edges: 232_700_000, Bipartite: true, Users: 2_900_000, Items: 100_000, HeapBytes: 5796 << 20},
}

// DatasetByName returns the registry entry for the given abbreviation.
func DatasetByName(name string) (DatasetSpec, error) {
	for _, d := range Datasets {
		if d.Name == name {
			return d, nil
		}
	}
	return DatasetSpec{}, fmt.Errorf("graph: unknown dataset %q (registered: %s)", name, strings.Join(DatasetNames(), "|"))
}

// DatasetNames returns the registered dataset abbreviations in registry
// order, for CLI help strings and validation.
func DatasetNames() []string {
	names := make([]string, len(Datasets))
	for i, d := range Datasets {
		names[i] = d.Name
	}
	return names
}

// GraphDatasets returns the non-bipartite inputs (used by BFS/PR/SSSP).
func GraphDatasets() []DatasetSpec {
	var out []DatasetSpec
	for _, d := range Datasets {
		if !d.Bipartite {
			out = append(out, d)
		}
	}
	return out
}

// BipartiteDatasets returns the CF inputs.
func BipartiteDatasets() []DatasetSpec {
	var out []DatasetSpec
	for _, d := range Datasets {
		if d.Bipartite {
			out = append(out, d)
		}
	}
	return out
}

// Generate materializes the dataset at a linear scale factor in (0, 1]:
// vertex and edge counts shrink proportionally (scale 1 = paper size).
// Non-bipartite datasets are drawn from R-MAT at the nearest scale with an
// edge factor matching the dataset's E/V ratio; bipartite datasets shrink
// users/items/edges together.
func (d DatasetSpec) Generate(scale float64, seed int64) (*Graph, error) {
	return d.GenerateB(scale, seed, nil)
}

// GenerateB is Generate with a shared worker budget for the CSR build:
// the RNG edge streams stay sequential, so the graph is bit-identical to
// Generate's at every budget population.
func (d DatasetSpec) GenerateB(scale float64, seed int64, b *runner.Budget) (*Graph, error) {
	rmat, bip, err := d.generator(scale, seed)
	if err != nil {
		return nil, err
	}
	var g *Graph
	if d.Bipartite {
		bip.Workers = b
		g, err = GenerateBipartite(bip)
	} else {
		rmat.Workers = b
		g, err = GenerateRMAT(rmat)
	}
	if err != nil {
		return nil, err
	}
	g.Name = d.Name
	return g, nil
}

// Shape returns the vertex and edge counts Generate produces at scale,
// without generating anything: the sizes a workload's heap arrays are
// laid out from. It fails exactly where Generate does.
func (d DatasetSpec) Shape(scale float64) (v, e int, err error) {
	rmat, bip, err := d.generator(scale, 0)
	if err != nil {
		return 0, 0, err
	}
	if d.Bipartite {
		return bip.Users + bip.Items, bip.Edges, nil
	}
	return 1 << rmat.Scale, rmat.EdgeFactor << rmat.Scale, nil
}

// generator returns the validated generator configuration d scales to:
// the R-MAT config of a graph dataset, or the bipartite config of a CF
// dataset (the other is zero). It is the one place the scale is checked
// and the scaled sizes are derived, so Shape and GenerateB cannot drift.
// The negated range test also rejects a NaN scale.
func (d DatasetSpec) generator(scale float64, seed int64) (RMATConfig, BipartiteConfig, error) {
	if !(scale > 0 && scale <= 1) {
		return RMATConfig{}, BipartiteConfig{}, fmt.Errorf("graph: scale %v out of (0,1]", scale)
	}
	if d.Bipartite {
		users := scaleInt(d.Users, scale, 64)
		cfg := BipartiteConfig{
			Users: users, Items: scaleInt(d.Items, scale, 16), Edges: scaleInt(d.Edges, scale, 256),
			Skew: DefaultRMAT(sizeScale(users), seed),
		}
		return RMATConfig{}, cfg, cfg.Skew.validate()
	}
	rmatScale := int(math.Round(math.Log2(float64(d.Vertices) * scale)))
	if rmatScale < 4 {
		rmatScale = 4
	}
	ef := int(math.Round(float64(d.Edges) / float64(d.Vertices)))
	if ef < 1 {
		ef = 1
	}
	cfg := DefaultRMAT(rmatScale, seed)
	cfg.EdgeFactor = ef
	return cfg, BipartiteConfig{}, cfg.validate()
}

// scaleInt scales n by f with a floor.
func scaleInt(n int, f float64, min int) int {
	s := int(math.Round(float64(n) * f))
	if s < min {
		s = min
	}
	return s
}
