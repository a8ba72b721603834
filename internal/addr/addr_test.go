package addr

import (
	"testing"
	"testing/quick"
)

func TestPermAllows(t *testing.T) {
	cases := []struct {
		perm Perm
		kind AccessKind
		want bool
	}{
		{NoPerm, Read, false},
		{NoPerm, Write, false},
		{NoPerm, Execute, false},
		{ReadOnly, Read, true},
		{ReadOnly, Write, false},
		{ReadOnly, Execute, false},
		{ReadWrite, Read, true},
		{ReadWrite, Write, true},
		{ReadWrite, Execute, false},
		{ReadExecute, Read, true},
		{ReadExecute, Write, false},
		{ReadExecute, Execute, true},
	}
	for _, c := range cases {
		if got := c.perm.Allows(c.kind); got != c.want {
			t.Errorf("Perm(%v).Allows(%v) = %v, want %v", c.perm, c.kind, got, c.want)
		}
	}
}

func TestPermString(t *testing.T) {
	want := map[Perm]string{NoPerm: "--", ReadOnly: "r-", ReadWrite: "rw", ReadExecute: "rx"}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("Perm(%d).String() = %q, want %q", uint8(p), p.String(), s)
		}
	}
}

func TestAccessKindString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" || Execute.String() != "execute" {
		t.Errorf("unexpected AccessKind strings: %v %v %v", Read, Write, Execute)
	}
}

func TestAlignHelpers(t *testing.T) {
	cases := []struct {
		a, align, down, up uint64
	}{
		{0, 4096, 0, 0},
		{1, 4096, 0, 4096},
		{4095, 4096, 0, 4096},
		{4096, 4096, 4096, 4096},
		{4097, 4096, 4096, 8192},
		{PageSize2M - 1, PageSize2M, 0, PageSize2M},
		{PageSize2M, PageSize2M, PageSize2M, PageSize2M},
	}
	for _, c := range cases {
		if got := AlignDown(c.a, c.align); got != c.down {
			t.Errorf("AlignDown(%d,%d) = %d, want %d", c.a, c.align, got, c.down)
		}
		if got := AlignUp(c.a, c.align); got != c.up {
			t.Errorf("AlignUp(%d,%d) = %d, want %d", c.a, c.align, got, c.up)
		}
	}
}

func TestIsAligned(t *testing.T) {
	if !IsAligned(0, PageSize4K) || !IsAligned(8192, PageSize4K) {
		t.Error("expected aligned addresses to report aligned")
	}
	if IsAligned(1, PageSize4K) || IsAligned(PageSize4K+8, PageSize4K) {
		t.Error("expected misaligned addresses to report not aligned")
	}
}

func TestAlignProperties(t *testing.T) {
	// AlignDown(a) <= a <= AlignUp(a), both aligned, and they differ by
	// less than one alignment unit.
	f := func(a uint32, shift uint8) bool {
		align := uint64(1) << (12 + shift%19) // 4 KB .. 1 GB
		x := uint64(a)
		d, u := AlignDown(x, align), AlignUp(x, align)
		if d > x || u < x {
			return false
		}
		if !IsAligned(d, align) || !IsAligned(u, align) {
			return false
		}
		return x-d < align && u-x < align
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPageHelpers(t *testing.T) {
	va := VA(0x12345678)
	if va.PageDown() != VA(0x12345000) {
		t.Errorf("PageDown = %#x", uint64(va.PageDown()))
	}
	if va.PageNumber() != 0x12345 {
		t.Errorf("PageNumber = %#x", va.PageNumber())
	}
	pa := PA(0xabcdef123)
	if pa.PageDown() != PA(0xabcdef000) {
		t.Errorf("PA.PageDown = %#x", uint64(pa.PageDown()))
	}
}

func TestVRange(t *testing.T) {
	r := VRange{Start: 0x1000, Size: 0x2000}
	if r.End() != 0x3000 {
		t.Errorf("End = %#x", uint64(r.End()))
	}
	if !r.Contains(0x1000) || !r.Contains(0x2fff) {
		t.Error("Contains should include endpoints-1")
	}
	if r.Contains(0xfff) || r.Contains(0x3000) {
		t.Error("Contains should exclude outside addresses")
	}
	if r.Empty() {
		t.Error("non-zero range reported empty")
	}
	if !(VRange{Start: 5}).Empty() {
		t.Error("zero-size range should be empty")
	}
}

func TestVRangeOverlaps(t *testing.T) {
	a := VRange{Start: 0x1000, Size: 0x1000}
	cases := []struct {
		b    VRange
		want bool
	}{
		{VRange{Start: 0x0, Size: 0x1000}, false},    // adjacent below
		{VRange{Start: 0x2000, Size: 0x1000}, false}, // adjacent above
		{VRange{Start: 0x0, Size: 0x1001}, true},     // 1-byte overlap below
		{VRange{Start: 0x1fff, Size: 0x10}, true},    // 1-byte overlap above
		{VRange{Start: 0x1400, Size: 0x100}, true},   // contained
		{VRange{Start: 0x0, Size: 0x10000}, true},    // containing
	}
	for _, c := range cases {
		if got := a.Overlaps(c.b); got != c.want {
			t.Errorf("%v.Overlaps(%v) = %v, want %v", a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(a); got != c.want {
			t.Errorf("overlap not symmetric for %v and %v", a, c.b)
		}
	}
}

func TestPRange(t *testing.T) {
	r := PRange{Start: 0x4000, Size: 0x1000}
	if r.End() != 0x5000 || !r.Contains(0x4500) || r.Contains(0x5000) {
		t.Errorf("PRange behaviour wrong: %v", r)
	}
	o := PRange{Start: 0x4800, Size: 0x1000}
	if !r.Overlaps(o) {
		t.Error("expected overlap")
	}
}

func TestIdentity(t *testing.T) {
	if !Identity(VRange{Start: 0x10000, Size: 0x4000}, PRange{Start: 0x10000, Size: 0x4000}) {
		t.Error("identical ranges should be identity")
	}
	if Identity(VRange{Start: 0x10000, Size: 0x4000}, PRange{Start: 0x20000, Size: 0x4000}) {
		t.Error("different starts must not be identity")
	}
	if Identity(VRange{Start: 0x10000, Size: 0x4000}, PRange{Start: 0x10000, Size: 0x8000}) {
		t.Error("different sizes must not be identity")
	}
}

func TestRangeStrings(t *testing.T) {
	if (VRange{Start: 0x1000, Size: 0x1000}).String() != "[0x1000,0x2000)" {
		t.Errorf("VRange.String = %s", VRange{Start: 0x1000, Size: 0x1000})
	}
	if (PRange{Start: 0x1000, Size: 0x1000}).String() != "[0x1000,0x2000)" {
		t.Errorf("PRange.String = %s", PRange{Start: 0x1000, Size: 0x1000})
	}
}
