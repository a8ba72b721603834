package pagetable

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/dvm-sim/dvm/internal/addr"
)

// A run-page program is a byte string of 8-byte operations on a window
// of four level-1 pages at runWinBase (plus, for opTop, the pages just
// below MaxVA). Byte 0 picks the operation; bytes 1-2 the window page;
// byte 3 a page count; byte 4 how frame numbers follow the pages; byte
// 5 the permission; bytes 6-7 a level and the raw word of a corruption.
const (
	opMap      = iota // Map one 4 KB page
	opMapRange        // MapRange 1 + 8*b3 pages
	opHuge            // Map the 2 MB leaf covering the page
	opSetPE           // SetPE at level 2 over the page
	opSet             // Node.set of the page's level-1 entry
	opCorrupt         // CorruptEntry at level 1 or 2
	opTop             // MapRange from below MaxVA across it: fails part way
	numRunOps

	runOpBytes = 8
	runWinBase = uint64(1) << 30
	runWinPage = 4 * EntriesPerNode
	runTopBase = uint64(addr.MaxVA) - EntriesPerNode*addr.PageSize4K
)

// runOp encodes one operation of a run-page program.
func runOp(kind, page int, count, frames, perm, b6, b7 byte) []byte {
	b := []byte{byte(kind), 0, 0, count, frames, perm, b6, b7}
	binary.LittleEndian.PutUint16(b[1:], uint16(page))
	return b
}

// runFrame is the frame number mode maps window page p to. Modes 1, 3
// and 4 are consecutive but not identity; mode 3 starts at the frame
// bound of a 4 KB leaf, so the walker faults every such leaf as corrupt;
// mode 4 wraps the 52-bit frame field within a page; mode 2 repeats one
// frame, so no two pages are consecutive.
func runFrame(mode byte, p uint64) uint64 {
	switch mode % 5 {
	case 1:
		return runWinBase>>12 + p + 1
	case 2:
		return 0x777
	case 3:
		return 1<<40 + p
	case 4:
		return 1<<52 - 3 + p
	default:
		return runWinBase>>12 + p
	}
}

var runPerms = [...]addr.Perm{addr.NoPerm, addr.ReadOnly, addr.ReadWrite, addr.ReadExecute, addr.Perm(5)}

// applyRunOp runs one operation on tbl and returns its error.
func applyRunOp(tbl *Table, op []byte) error {
	page := uint64(binary.LittleEndian.Uint16(op[1:])) % runWinPage
	count := 1 + uint64(op[3])*8
	perm := runPerms[int(op[5])%len(runPerms)]
	va := addr.VA(runWinBase + page*addr.PageSize4K)
	pa := addr.PA(runFrame(op[4], page) << 12)
	raw := uint64(op[7])*0x9E3779B97F4A7C15 ^ page<<20
	switch op[0] % numRunOps {
	case opMap:
		return tbl.Map(va, pa, perm, addr.PageSize4K)
	case opMapRange:
		return tbl.MapRange(addr.VRange{Start: va, Size: count * addr.PageSize4K}, pa, perm, addr.PageSize4K)
	case opHuge:
		hva := addr.AlignDown(uint64(va), addr.PageSize2M)
		return tbl.Map(addr.VA(hva), addr.PA(hva), perm, addr.PageSize2M)
	case opSetPE:
		perms := make([]addr.Perm, tbl.cfg.PEFields)
		for i := range perms {
			perms[i] = addr.Perm(raw >> (2 * i) & 3)
		}
		return tbl.SetPE(addr.VA(addr.AlignDown(uint64(va), addr.PageSize2M)), 2, perms)
	case opSet:
		n, err := tbl.nodeAt(va, 1)
		if err != nil {
			return err
		}
		n.set(indexAt(va, 1), makeEntry(EntryLeaf, perm, uint64(pa)>>12))
		return nil
	case opCorrupt:
		level := 1 + int(op[6]&1)
		raw = raw&^7 | uint64(op[6]>>1&7)
		return tbl.CorruptEntry(va, level, raw)
	default: // opTop
		below := uint64(op[3]) + 1
		start := runTopBase + (EntriesPerNode-below)*addr.PageSize4K
		r := addr.VRange{Start: addr.VA(start), Size: (below + uint64(op[1]%8) + 1) * addr.PageSize4K}
		return tbl.MapRange(r, addr.PA(start), perm, addr.PageSize4K)
	}
}

// forceWords moves every node of tbl to words state.
func forceWords(tbl *Table) {
	seen := map[*Node]bool{}
	var visit func(n *Node)
	visit = func(n *Node) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		n.writable()
		for _, kid := range n.kids {
			visit(kid)
		}
	}
	visit(tbl.root)
}

// eachNode calls fn for tbl's root and every node reached from it
// through links that pass link, depth first in entry order. It reads no
// leaf or PE, so only a broken link keeps it from a node.
func eachNode(tbl *Table, fn func(n *Node)) {
	var descend func(n *Node)
	descend = func(n *Node) {
		fn(n)
		for i := 0; i < EntriesPerNode; i++ {
			if e := n.entry(i); e.Kind() == EntryTable && n.link(e) != nil {
				descend(n.link(e))
			}
		}
	}
	descend(tbl.root)
}

// levelOnePages counts tbl's level-1 pages in run and in words state.
func levelOnePages(tbl *Table) (run, words int) {
	eachNode(tbl, func(n *Node) {
		switch {
		case n.Level != 1:
		case n.words == nil:
			run++
		default:
			words++
		}
	})
	return run, words
}

// nodePAs lists the level and PA of every node of tbl, depth first in
// entry order.
func nodePAs(tbl *Table) string {
	var out []string
	eachNode(tbl, func(n *Node) { out = append(out, fmt.Sprintf("L%d@%#x", n.Level, uint64(n.PA))) })
	return strings.Join(out, " ")
}

// dumpText is Dump's output, or its error.
func dumpText(tbl *Table) string {
	var b strings.Builder
	if err := tbl.Dump(&b); err != nil {
		return err.Error()
	}
	return b.String()
}

// runProbes are the addresses whose walks the run-page checks compare:
// every window page, the 2 MB around it and the pages near MaxVA.
func runProbes() []addr.VA {
	var probes []addr.VA
	for p := uint64(0); p < runWinPage+EntriesPerNode; p++ {
		probes = append(probes, addr.VA(runWinBase-EntriesPerNode*addr.PageSize4K/2+p*addr.PageSize4K+p%7*512))
	}
	for p := uint64(0); p < EntriesPerNode+8; p++ {
		probes = append(probes, addr.VA(runTopBase+p*addr.PageSize4K))
	}
	return probes
}

// checkRunProgram runs prog on a table and on a twin forced into words
// state after every operation, and fails unless every operation returns
// the same error and the two tables read alike, whatever the program
// corrupted: walks, SizeStats, ForEachPage, Dump and Compacted's node
// PAs and walks, or the same error from each. It returns the table built
// in run state.
func checkRunProgram(t *testing.T, prog []byte) *Table {
	t.Helper()
	probes := runProbes()
	tbl, twin := MustNew(Config{}), MustNew(Config{})
	for k := 0; k+runOpBytes <= len(prog); k += runOpBytes {
		op := prog[k : k+runOpBytes]
		err, twinErr := applyRunOp(tbl, op), applyRunOp(twin, op)
		forceWords(twin)
		if fmt.Sprint(err) != fmt.Sprint(twinErr) {
			t.Fatalf("op %d (% x): error %v, words-state twin %v", k/runOpBytes, op, err, twinErr)
		}
	}
	for _, va := range probes {
		got, want := tbl.Walk(va), twin.Walk(va)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("Walk(%#x) = %+v, words-state twin %+v", uint64(va), got, want)
		}
	}
	diffViews(t, "run-state table", viewOf(tbl, probes), viewOf(twin, probes), probes)
	if got, want := dumpText(tbl), dumpText(twin); got != want {
		t.Errorf("Dump:\n%s\nwords-state twin:\n%s", got, want)
	}
	got, err := tbl.Compacted()
	want, twinErr := twin.Compacted()
	if fmt.Sprint(err) != fmt.Sprint(twinErr) {
		t.Fatalf("Compacted: error %v, words-state twin %v", err, twinErr)
	}
	if err != nil {
		return tbl
	}
	if g, w := nodePAs(got), nodePAs(want); g != w {
		t.Errorf("Compacted nodes %s, words-state twin %s", g, w)
	}
	diffViews(t, "Compacted", viewOf(got, probes), viewOf(want, probes), probes)
	return tbl
}

// runPagePrograms are programs that each reach one way a level-1 page
// leaves, or keeps, the run state.
var runPagePrograms = []struct {
	name      string
	prog      [][]byte
	wantWords bool // some level-1 page ends in words state
}{
	{"extend across pages", [][]byte{
		runOp(opMapRange, 10, 12, 0, 2, 0, 0),
		runOp(opMap, 107, 0, 0, 2, 0, 0),
		runOp(opMapRange, 108, 200, 0, 2, 0, 0),
	}, false},
	{"frames wrap the 52-bit field", [][]byte{runOp(opMapRange, 0, 255, 4, 1, 0, 0)}, false},
	{"non-identity run", [][]byte{runOp(opMapRange, 600, 100, 1, 3, 0, 0)}, false},
	{"out-of-range frames", [][]byte{runOp(opMapRange, 600, 100, 3, 3, 0, 0)}, false},
	{"no-permission run", [][]byte{runOp(opMapRange, 0, 63, 0, 0, 0, 0)}, false},
	{"invalid-permission run", [][]byte{runOp(opMapRange, 0, 63, 0, 4, 0, 0)}, false},
	{"non-consecutive frame", [][]byte{
		runOp(opMap, 0, 0, 2, 2, 0, 0),
		runOp(opMap, 1, 0, 2, 2, 0, 0),
	}, true},
	{"another permission", [][]byte{
		runOp(opMapRange, 0, 1, 0, 2, 0, 0),
		runOp(opMap, 9, 0, 0, 1, 0, 0),
	}, true},
	{"out-of-order index", [][]byte{
		runOp(opMap, 5, 0, 0, 2, 0, 0),
		runOp(opMap, 4, 0, 0, 2, 0, 0),
	}, true},
	{"rewrite inside the run", [][]byte{
		runOp(opMapRange, 5, 1, 0, 2, 0, 0),
		runOp(opMap, 6, 0, 0, 2, 0, 0),
	}, true},
	{"set", [][]byte{
		runOp(opMapRange, 0, 63, 0, 2, 0, 0),
		runOp(opSet, 300, 0, 0, 2, 0, 0),
	}, true},
	{"corrupt leaf", [][]byte{
		runOp(opMapRange, 0, 63, 0, 2, 0, 0),
		runOp(opCorrupt, 3, 0, 0, 0, byte(EntryLeaf)<<1, 9),
	}, true},
	{"corrupt unknown kind", [][]byte{
		runOp(opMapRange, 512, 63, 0, 2, 0, 0),
		runOp(opCorrupt, 700, 0, 0, 0, 6<<1, 1),
	}, true},
	{"corrupt empty", [][]byte{
		runOp(opMapRange, 512, 63, 0, 2, 0, 0),
		runOp(opCorrupt, 513, 0, 0, 0, byte(EntryEmpty)<<1, 1),
	}, true},
	{"corrupt PE", [][]byte{
		runOp(opMapRange, 0, 63, 0, 2, 0, 0),
		runOp(opCorrupt, 40, 0, 0, 0, byte(EntryPE)<<1, 77),
	}, true},
	{"corrupt table link", [][]byte{
		runOp(opMapRange, 0, 63, 0, 2, 0, 0),
		runOp(opCorrupt, 41, 0, 0, 0, byte(EntryTable)<<1, 5),
		runOp(opCorrupt, 1024, 0, 0, 0, byte(EntryTable)<<1|1, 5),
	}, true},
	{"MapRange fails at MaxVA", [][]byte{runOp(opTop, 3, 40, 0, 2, 0, 0)}, false},
	{"huge leaf, PE and runs", [][]byte{
		runOp(opMapRange, 0, 63, 0, 2, 0, 0),
		runOp(opHuge, 600, 0, 0, 1, 0, 0),
		runOp(opSetPE, 1100, 0, 0, 0, 0, 3),
		runOp(opMap, 1100, 0, 0, 2, 0, 0),
		runOp(opMapRange, 1536, 10, 0, 3, 0, 0),
		runOp(opMap, 1700, 0, 0, 3, 0, 0),
	}, true},
}

// TestRunPageMatchesWords checks that a level-1 page in run state reads
// exactly like the same page in words state, on programs that reach
// every way out of the run state and on random programs.
func TestRunPageMatchesWords(t *testing.T) {
	for _, tc := range runPagePrograms {
		t.Run(tc.name, func(t *testing.T) {
			run, words := levelOnePages(checkRunProgram(t, concatOps(tc.prog)))
			if tc.wantWords && words == 0 {
				t.Errorf("no level-1 page left the run state (%d in run state)", run)
			}
			if !tc.wantWords && (words != 0 || run == 0) {
				t.Errorf("%d level-1 pages in run state and %d in words state, want all in run state", run, words)
			}
		})
	}
	rng := rand.New(rand.NewSource(1))
	for seed := 0; seed < 100; seed++ {
		prog := make([]byte, runOpBytes*(1+rng.Intn(12)))
		rng.Read(prog)
		t.Run(fmt.Sprintf("random-%d", seed), func(t *testing.T) { checkRunProgram(t, prog) })
	}
}

func concatOps(ops [][]byte) []byte {
	var b []byte
	for _, op := range ops {
		b = append(b, op...)
	}
	return b
}

// FuzzRunPage runs arbitrary run-page programs: the run-state table and
// its words-state twin must agree after any of them.
func FuzzRunPage(f *testing.F) {
	for _, tc := range runPagePrograms {
		f.Add(concatOps(tc.prog))
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 32*runOpBytes {
			prog = prog[:32*runOpBytes]
		}
		checkRunProgram(t, prog)
	})
}

// TestRunSummaryMatchesWords checks the O(1) summaries of a run-state
// page against the per-entry ones of the same page in words state, for
// runs at and away from both page edges, every kind of permission,
// identity and shifted frames, and every PE fan-out shape.
func TestRunSummaryMatchesWords(t *testing.T) {
	const base = addr.VA(runWinBase)
	bounds := []int{0, 1, 31, 32, 33, 255, 256, 480, 511, 512}
	for _, fields := range []int{1, 2, 16, 64, EntriesPerNode} {
		tbl := MustNew(Config{PEFields: fields})
		for _, perm := range runPerms {
			for _, shift := range []uint64{0, 1} {
				for _, lo := range bounds {
					for _, hi := range bounds {
						if hi < lo {
							continue
						}
						run := &Node{Level: 1}
						for i := lo; i < hi; i++ {
							if !run.extendRun(i, makeEntry(EntryLeaf, perm, uint64(base)>>12+uint64(i)+shift)) {
								t.Fatalf("extendRun(%d) of run [%d,%d) failed", i, lo, hi)
							}
						}
						words := cloneNode(run)
						words.writable()
						what := fmt.Sprintf("%d fields, perm %v, shift %d, run [%d,%d)", fields, perm, shift, lo, hi)
						got, gotErr := tbl.rangeSummary(run, base, 0, EntriesPerNode)
						want, wantErr := tbl.rangeSummary(words, base, 0, EntriesPerNode)
						if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
							t.Errorf("%s: rangeSummary %+v (%v), words state %+v (%v)", what, got, gotErr, want, wantErr)
						}
						gotPerms, gotOK := tbl.groupPerms(run, base)
						wantPerms, wantOK := tbl.groupPerms(words, base)
						if gotOK != wantOK || fmt.Sprint(gotPerms) != fmt.Sprint(wantPerms) {
							t.Errorf("%s: groupPerms %v %v, words state %v %v", what, gotPerms, gotOK, wantPerms, wantOK)
						}
					}
				}
			}
		}
	}
}
