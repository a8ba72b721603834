package graph

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGenerateRMATBasic(t *testing.T) {
	g, err := GenerateRMAT(DefaultRMAT(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	if g.V != 1024 {
		t.Errorf("V = %d", g.V)
	}
	if g.E() != 1024*16 {
		t.Errorf("E = %d", g.E())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateRMATDeterministic(t *testing.T) {
	a, _ := GenerateRMAT(DefaultRMAT(8, 42))
	b, _ := GenerateRMAT(DefaultRMAT(8, 42))
	if a.E() != b.E() {
		t.Fatal("edge counts differ")
	}
	for i := range a.Col {
		if a.Col[i] != b.Col[i] {
			t.Fatalf("edge %d differs: %d vs %d", i, a.Col[i], b.Col[i])
		}
	}
	c, _ := GenerateRMAT(DefaultRMAT(8, 43))
	same := true
	for i := range a.Col {
		if a.Col[i] != c.Col[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical graphs")
	}
}

func TestRMATSkew(t *testing.T) {
	// R-MAT with graph500 parameters must produce a skewed out-degree
	// distribution: the top 1% of vertices should own far more than 1%
	// of the edges.
	g, err := GenerateRMAT(DefaultRMAT(12, 7))
	if err != nil {
		t.Fatal(err)
	}
	degrees := make([]int, g.V)
	for v := 0; v < g.V; v++ {
		degrees[v] = g.OutDegree(v)
	}
	// Count edges owned by vertices with degree >= 4x the average.
	avg := float64(g.E()) / float64(g.V)
	heavy := 0
	for _, d := range degrees {
		if float64(d) >= 4*avg {
			heavy += d
		}
	}
	if frac := float64(heavy) / float64(g.E()); frac < 0.05 {
		t.Errorf("heavy-vertex edge fraction = %.3f, want >= 0.05 (skew missing)", frac)
	}
}

func TestGenerateRMATValidation(t *testing.T) {
	if _, err := GenerateRMAT(RMATConfig{Scale: 0}); err == nil {
		t.Error("scale 0 accepted")
	}
	if _, err := GenerateRMAT(RMATConfig{Scale: 8, EdgeFactor: 0}); err == nil {
		t.Error("edge factor 0 accepted")
	}
	if _, err := GenerateRMAT(RMATConfig{Scale: 8, EdgeFactor: 8, A: 0.6, B: 0.3, C: 0.2}); err == nil {
		t.Error("probabilities summing over 1 accepted")
	}
	if _, err := GenerateRMAT(RMATConfig{Scale: 8, EdgeFactor: 8, A: math.NaN(), B: 0.19, C: 0.19}); err == nil {
		t.Error("NaN probability accepted")
	}
}

func TestGenerateBipartite(t *testing.T) {
	g, err := GenerateBipartite(BipartiteConfig{Users: 1000, Items: 50, Edges: 20000, Skew: DefaultRMAT(10, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.Bipartite || g.Users != 1000 || g.Items != 50 {
		t.Errorf("shape: %+v", g)
	}
	if g.E() != 20000 {
		t.Errorf("E = %d", g.E())
	}
	// All ratings in [1,5].
	for _, w := range g.Weight {
		if w < 1 || w > 5 {
			t.Fatalf("rating %v out of range", w)
		}
	}
	// Items must emit no edges.
	for v := g.Users; v < g.V; v++ {
		if g.OutDegree(v) != 0 {
			t.Fatalf("item %d has out-edges", v)
		}
	}
}

func TestGenerateBipartiteValidation(t *testing.T) {
	if _, err := GenerateBipartite(BipartiteConfig{Users: 0, Items: 5, Edges: 5}); err == nil {
		t.Error("0 users accepted")
	}
	// A caller-supplied Skew passes the same checks as GenerateRMAT's
	// config: a negative B or C would break the ordered thresholds the
	// quadrant descent relies on.
	nan := math.NaN()
	for _, skew := range []RMATConfig{
		{Scale: 31, A: 0.57, B: 0.19, C: 0.19},
		{Scale: -1, A: 0.57, B: 0.19, C: 0.19},
		{Scale: 8, A: 0.57, B: -0.1, C: 0.19},
		{Scale: 8, A: 0.57, B: 0.19, C: -0.1},
		{Scale: 8, A: 0, B: 0.5, C: 0.3},
		{Scale: 8, A: 0.6, B: 0.3, C: 0.2},
		{Scale: 8, A: nan, B: 0.19, C: 0.19},
		{Scale: 8, A: 0.57, B: nan, C: 0.19},
		{Scale: 8, A: 0.57, B: 0.19, C: math.Inf(1)},
	} {
		if _, err := GenerateBipartite(BipartiteConfig{Users: 100, Items: 10, Edges: 50, Skew: skew}); err == nil {
			t.Errorf("skew %+v accepted", skew)
		}
	}
}

func TestEdgesIteration(t *testing.T) {
	g, _ := GenerateRMAT(DefaultRMAT(6, 1))
	count := 0
	g.Edges(func(src, dst int, w float32) bool {
		count++
		return true
	})
	if count != g.E() {
		t.Errorf("iterated %d edges, want %d", count, g.E())
	}
	// Early stop.
	count = 0
	g.Edges(func(src, dst int, w float32) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Errorf("early stop iterated %d", count)
	}
}

func TestDatasetRegistry(t *testing.T) {
	if len(Datasets) != 7 {
		t.Fatalf("registry has %d datasets, want 7 (Table 3)", len(Datasets))
	}
	if len(GraphDatasets()) != 4 || len(BipartiteDatasets()) != 3 {
		t.Errorf("partition wrong: %d graph, %d bipartite", len(GraphDatasets()), len(BipartiteDatasets()))
	}
	d, err := DatasetByName("Wiki")
	if err != nil || d.Edges != 84_750_000 {
		t.Errorf("Wiki lookup: %+v %v", d, err)
	}
	if _, err := DatasetByName("nope"); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestDatasetGenerateScaled(t *testing.T) {
	for _, spec := range Datasets {
		g, err := spec.Generate(1.0/256, 1)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if g.Name != spec.Name {
			t.Errorf("name %q", g.Name)
		}
		if g.Bipartite != spec.Bipartite {
			t.Errorf("%s: bipartite mismatch", spec.Name)
		}
		// E/V ratio approximately preserved for non-bipartite inputs.
		if !spec.Bipartite {
			wantRatio := float64(spec.Edges) / float64(spec.Vertices)
			gotRatio := float64(g.E()) / float64(g.V)
			if math.Abs(gotRatio-wantRatio)/wantRatio > 0.5 {
				t.Errorf("%s: E/V ratio %.1f, want ≈ %.1f", spec.Name, gotRatio, wantRatio)
			}
		}
	}
}

func TestDatasetGenerateValidation(t *testing.T) {
	if _, err := Datasets[0].Generate(0, 1); err == nil {
		t.Error("scale 0 accepted")
	}
	if _, err := Datasets[0].Generate(1.5, 1); err == nil {
		t.Error("scale > 1 accepted")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g, _ := GenerateRMAT(DefaultRMAT(6, 1))
	bad := *g
	bad.Col = append([]uint32{}, g.Col...)
	bad.Col[0] = uint32(g.V) // out of range
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range edge not caught")
	}
	bad2 := *g
	bad2.RowPtr = g.RowPtr[:len(g.RowPtr)-1]
	if err := bad2.Validate(); err == nil {
		t.Error("short RowPtr not caught")
	}
}

// Property: CSR round trip — for random small graphs, every generated edge
// is reachable via Edges and degrees sum to E.
func TestCSRProperty(t *testing.T) {
	f := func(seed int64) bool {
		g, err := GenerateRMAT(RMATConfig{Scale: 6, EdgeFactor: 4, A: 0.57, B: 0.19, C: 0.19, Seed: seed})
		if err != nil {
			return false
		}
		sum := 0
		for v := 0; v < g.V; v++ {
			sum += g.OutDegree(v)
		}
		return sum == g.E() && g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
