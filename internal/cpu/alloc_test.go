package cpu

import (
	"runtime"
	"testing"
)

// TestBuildTablesAlloc pins what building a Figure 10 job's page tables
// costs on the Go heap: the 4K, THP and cDVM tables of all five
// workloads. Their 4K tables map the identity-mapped heaps at 4 KB in
// about 5,500 level-1 pages, each filled by one contiguous run. In run
// state such a page is its node header alone, so the job stays under
// 3 MB; it allocated 28 MB when every level-1 page held its 512 entry
// words.
//
// Not parallel: TotalAlloc counts every goroutine's allocations.
func TestBuildTablesAlloc(t *testing.T) {
	const limit = 3 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pages := 0
	for _, w := range Workloads {
		tables, _, err := buildTables(w)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := tables[Scheme4K].SizeStats()
		if err != nil {
			t.Fatal(err)
		}
		pages += stats.NodesPerLevel[1]
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d level-1 pages in the 4K tables, %d B allocated", pages, got)
	if got > limit {
		t.Errorf("building the tables of all %d workloads allocated %d B, want under %d", len(Workloads), got, limit)
	}
}

// BenchmarkBuildTables prices one Figure 10 job's table builds: the
// three tables of each of the five workloads.
func BenchmarkBuildTables(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, w := range Workloads {
			if _, _, err := buildTables(w); err != nil {
				b.Fatal(err)
			}
		}
	}
}
