package core

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/dvm-sim/dvm/internal/graph"
	"github.com/dvm-sim/dvm/internal/pagetable"
)

// TestPreparedCacheDirMatchesInMemory runs the same workloads through
// the default (in-memory) cache and a dir-backed (mmap'd on-disk CSR)
// cache and requires identical run results: the backing changes where
// graph bytes live, never what any mode computes.
func TestPreparedCacheDirMatchesInMemory(t *testing.T) {
	dir := t.TempDir()
	mem := NewPreparedCache()
	disk := NewPreparedCacheDir(dir)
	defer disk.Close()

	datasets := []string{"FR", "NF"}
	for _, name := range datasets {
		d, err := graph.DatasetByName(name)
		if err != nil {
			t.Fatal(err)
		}
		alg := "BFS"
		if d.Bipartite {
			alg = "CF"
		}
		wl := Workload{Algorithm: alg, Dataset: d, Scale: ProfileTiny.Scale, Seed: 42}
		cfg := ProfileTiny.SystemConfig()
		for _, mode := range []Mode{ModeConv4K, ModeDVMPE} {
			pm, err := mem.Prepare(wl)
			if err != nil {
				t.Fatalf("%s in-memory prepare: %v", name, err)
			}
			pd, err := disk.Prepare(wl)
			if err != nil {
				t.Fatalf("%s dir-backed prepare: %v", name, err)
			}
			rm, err := pm.Run(mode, cfg)
			if err != nil {
				t.Fatalf("%s/%v in-memory run: %v", name, mode, err)
			}
			rd, err := pd.Run(mode, cfg)
			if err != nil {
				t.Fatalf("%s/%v dir-backed run: %v", name, mode, err)
			}
			// Wall is host wall-clock, the one legitimately
			// nondeterministic field.
			rm.Wall, rd.Wall = 0, 0
			if !reflect.DeepEqual(rm, rd) {
				t.Errorf("%s/%v: dir-backed result differs from in-memory\nmem:  %+v\ndisk: %+v", name, mode, rm, rd)
			}
		}
	}

	// The cache wrote one .dvmcsr per dataset and mapped it.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".dvmcsr") {
			files = append(files, e.Name())
		}
	}
	if len(files) != len(datasets) {
		t.Errorf("cache dir holds %d .dvmcsr files (%v), want %d", len(files), files, len(datasets))
	}
}

// TestPreparedCacheSharesGraphAcrossAlgorithms pins the footprint
// mechanism: in both backings, the BFS, PageRank and SSSP preparations
// of each dataset share one *graph.Graph (Workload keys include
// Algorithm; graph keys do not), and dir-backed graphs are mmap'd.
func TestPreparedCacheSharesGraphAcrossAlgorithms(t *testing.T) {
	disk := NewPreparedCacheDir(t.TempDir())
	defer disk.Close()
	for _, c := range []struct {
		name    string
		cache   *PreparedCache
		backing graph.Backing
	}{{"in-memory", NewPreparedCache(), graph.InMemory}, {"dir-backed", disk, graph.MMap}} {
		for _, d := range graph.GraphDatasets() {
			var g *graph.Graph
			for _, alg := range []string{"BFS", "PageRank", "SSSP"} {
				p, err := c.cache.Prepare(Workload{Algorithm: alg, Dataset: d, Scale: ProfileTiny.Scale, Seed: 42})
				if err != nil {
					t.Fatal(err)
				}
				if g == nil {
					g = p.G
				} else if p.G != g {
					t.Errorf("%s cache built a separate %s graph for %s", c.name, d.Name, alg)
				}
			}
			if b := g.Backing(); b != c.backing {
				t.Errorf("%s %s graph backing = %v, want %v", c.name, d.Name, b, c.backing)
			}
		}
	}
}

// TestPreparedCacheConcurrentSharing races the cache the way -j
// workers and daemon jobs do: every algorithm of one dataset resolves
// one graph while Table 1's PrepareLayout callers resolve one
// layout-only Prepared, and Table 1 races the Conv4K and DVM-PE table
// requests on one fresh machine, where the PE entry builds the 4K entry
// it derives from, and on the layout-only Prepared's machine. Every
// caller must see the same graph, the same tables and the same row.
func TestPreparedCacheConcurrentSharing(t *testing.T) {
	d, err := graph.DatasetByName("Wiki")
	if err != nil {
		t.Fatal(err)
	}
	c := NewPreparedCache()
	pr := Workload{Algorithm: "PageRank", Dataset: d, Scale: ProfileTiny.Scale, PageRankIters: 2, Seed: 42}
	const callers = 4
	var wg sync.WaitGroup
	graphs := make([]*graph.Graph, 3*callers)
	layouts := make([]*Prepared, callers)
	for i := 0; i < 4*callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if alg := i % 4; alg == 3 {
				layouts[i/4], err = c.PrepareLayout(pr)
			} else {
				var p *Prepared
				p, err = c.Prepare(Workload{Algorithm: []string{"BFS", "PageRank", "SSSP"}[alg], Dataset: d, Scale: ProfileTiny.Scale, Seed: 42})
				if err == nil {
					graphs[3*(i/4)+alg] = p.G
				}
			}
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	for i, g := range graphs {
		if g == nil || g != graphs[0] {
			t.Fatalf("caller %d got a separate graph", i)
		}
	}
	for i, l := range layouts {
		if l != layouts[0] {
			t.Fatalf("PrepareLayout caller %d got a separate Prepared", i)
		}
	}
	if layouts[0].G != nil {
		t.Fatal("the layout-only Prepared holds a graph")
	}

	p, err := c.Prepare(pr)
	if err != nil {
		t.Fatal(err)
	}
	if l := layouts[0]; l.v != p.v || l.e != p.e {
		t.Fatalf("layout-only Prepared has shape (%d, %d), full (%d, %d)", l.v, l.e, p.v, p.e)
	}
	cfg := ProfileTiny.SystemConfig().withDefaults()
	st, err := p.machine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tables := make([]*pagetable.Table, 2*callers)
	rows := make([]Table1Row, 2*callers)
	for i := 0; i < callers; i++ {
		wg.Add(4)
		for j, q := range []*Prepared{p, layouts[0]} {
			go func(slot int, q *Prepared) {
				defer wg.Done()
				var err error
				if rows[slot], err = Table1(q, cfg); err != nil {
					t.Error(err)
				}
			}(2*i+j, q)
		}
		for j, mode := range []Mode{ModeConv4K, ModeDVMPE} {
			go func(slot int, mode Mode) {
				defer wg.Done()
				s, err := p.stateFor(st, mode, 0, nil)
				if err != nil {
					t.Error(err)
					return
				}
				tables[slot] = s.Table
			}(2*i+j, mode)
		}
	}
	wg.Wait()
	for i := range tables {
		if tables[i] != tables[i%2] {
			t.Errorf("table request %d got a separate table", i)
		}
	}
	for i, row := range rows {
		std, pe := sizeStats(t, tables[0]).Bytes, sizeStats(t, tables[1]).Bytes
		if row != rows[0] || row.StdBytes != std || row.PEBytes != pe {
			t.Errorf("Table1 call %d = %+v, tables hold %d and %d bytes", i, row, std, pe)
		}
	}
}

// TestPreparedCacheDirFallback: an unwritable cache directory degrades
// to in-memory graphs instead of failing preparation. A merely missing
// directory is created on demand (WriteFile MkdirAlls), so the test
// routes the cache path through a regular file — unwritable even for
// root.
func TestPreparedCacheDirFallback(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, []byte("x"), 0o666); err != nil {
		t.Fatal(err)
	}
	disk := NewPreparedCacheDir(filepath.Join(blocker, "nested"))
	defer disk.Close()
	d, err := graph.DatasetByName("FR")
	if err != nil {
		t.Fatal(err)
	}
	p, err := disk.Prepare(Workload{Algorithm: "BFS", Dataset: d, Scale: ProfileTiny.Scale, Seed: 42})
	if err != nil {
		t.Fatalf("prepare with unwritable cache dir: %v", err)
	}
	if b := p.G.Backing(); b != graph.InMemory {
		t.Errorf("fallback backing = %v, want InMemory", b)
	}
}
