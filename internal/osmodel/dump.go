package osmodel

import (
	"fmt"
	"io"
	"strings"
)

// DumpLayout writes the process's address-space map — one line per VMA with
// kind, range, permissions and backing state — in ascending address order.
func (p *Process) DumpLayout(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "pid %d: %d mappings\n", p.pid, len(p.vmas))
	for _, v := range p.vmas {
		backing := "demand"
		if v.Identity {
			backing = "identity"
		}
		fmt.Fprintf(&b, "  %-6s %v %v %-10s %d/%d pages backed\n",
			v.Kind, v.R, v.Perm, backing, v.Pages(), v.R.Size/4096)
	}
	total, identity := p.MappedBytes()
	fmt.Fprintf(&b, "  total %d KB mapped, %d KB identity (%.1f%%)\n",
		total>>10, identity>>10, 100*float64(identity)/float64(max64(total, 1)))
	_, err := io.WriteString(w, b.String())
	return err
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
