package graph

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"unsafe"

	"github.com/dvm-sim/dvm/internal/durable"
)

// On-disk CSR format. The file is a fixed-size little-endian header block
// followed by page-aligned RowPtr / Col / Weight sections and an 8-byte
// trailer magic:
//
//	[0,4096)            header (magic, version, flags, shape, offsets, name)
//	[rowPtrOff, +8(V+1))  RowPtr  []uint64
//	[colOff,    +4E)      Col     []uint32
//	[weightOff, +4E)      Weight  []float32   (absent when flagWeightless)
//	[size-8, size)        trailer magic
//
// Sections start on page boundaries so a page-aligned mmap of the whole
// file yields correctly aligned uint64/uint32/float32 views, and the
// trailer magic turns truncation into a load-time error instead of a
// mis-mapped graph. Files are written to a temp name and renamed into
// place, so a reader never observes a partially written file under its
// final name.

// Backing says where a Graph's CSR arrays live.
type Backing int

const (
	// InMemory graphs own their arrays on the Go heap.
	InMemory Backing = iota
	// MMap graphs alias a read-only memory-mapped file: one physical
	// copy shared by every mode, worker, and process that opens it.
	MMap
)

func (b Backing) String() string {
	if b == MMap {
		return "mmap"
	}
	return "inmemory"
}

// Backing reports where g's arrays live.
func (g *Graph) Backing() Backing {
	if g.mapped != nil {
		return MMap
	}
	return InMemory
}

// Close releases the mapping of an MMap-backed graph; the CSR slices are
// invalid afterwards. Closing an InMemory graph is a no-op.
func (g *Graph) Close() error {
	if g.mapped == nil {
		return nil
	}
	m := g.mapped
	g.mapped = nil
	g.RowPtr, g.Col, g.Weight = nil, nil, nil
	return syscall.Munmap(m)
}

// DropResident advises the kernel to evict the mapping's resident pages
// (MADV_DONTNEED on a read-only file mapping: pages are clean and
// re-fault from the page cache on next touch). Callers invoke it after
// a traversal so peak RSS tracks the *active* dataset rather than every
// dataset ever walked. No-op for InMemory graphs.
func (g *Graph) DropResident() {
	if g.mapped != nil {
		_ = syscall.Madvise(g.mapped, syscall.MADV_DONTNEED)
	}
}

const (
	csrMagic      = "DVMCSR1\n"
	csrTrailer    = "DVM.END\n"
	csrVersion    = 1
	csrHeaderSize = 4096
	csrPage       = 4096
	csrMaxName    = 255

	flagBipartite  = 1 << 0
	flagWeightless = 1 << 1
)

// header field offsets within the header block.
const (
	hdrVersion   = 8
	hdrFlags     = 12
	hdrV         = 16
	hdrE         = 24
	hdrUsers     = 32
	hdrItems     = 40
	hdrRowPtrOff = 48
	hdrColOff    = 56
	hdrWeightOff = 64
	hdrFileSize  = 72
	hdrNameLen   = 80
	hdrName      = 84
)

// hostLittleEndian reports whether native byte order is little-endian;
// the on-disk format is little-endian, and on LE hosts the sections are
// reinterpreted in place instead of decoded.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func alignPage(n uint64) uint64 { return (n + csrPage - 1) &^ (csrPage - 1) }

// WriteFile serializes g to path in the on-disk CSR format through
// durable.WriteFile, so a killed builder never publishes a torn file.
// The graph may be weightless (nil Weight).
func WriteFile(g *Graph, path string) error {
	if err := g.Validate(); err != nil {
		return fmt.Errorf("graph: refusing to write invalid graph: %w", err)
	}
	if len(g.Name) > csrMaxName {
		return fmt.Errorf("graph: name %q longer than %d bytes", g.Name, csrMaxName)
	}
	e := uint64(len(g.Col))
	rowPtrOff := uint64(csrHeaderSize)
	colOff := alignPage(rowPtrOff + 8*uint64(g.V+1))
	weightOff := uint64(0)
	end := colOff + 4*e
	if g.Weight != nil {
		weightOff = alignPage(end)
		end = weightOff + 4*e
	}
	size := end + uint64(len(csrTrailer))

	hdr := make([]byte, csrHeaderSize)
	copy(hdr, csrMagic)
	le := binary.LittleEndian
	le.PutUint32(hdr[hdrVersion:], csrVersion)
	flags := uint32(0)
	if g.Bipartite {
		flags |= flagBipartite
	}
	if g.Weight == nil {
		flags |= flagWeightless
	}
	le.PutUint32(hdr[hdrFlags:], flags)
	le.PutUint64(hdr[hdrV:], uint64(g.V))
	le.PutUint64(hdr[hdrE:], e)
	le.PutUint64(hdr[hdrUsers:], uint64(g.Users))
	le.PutUint64(hdr[hdrItems:], uint64(g.Items))
	le.PutUint64(hdr[hdrRowPtrOff:], rowPtrOff)
	le.PutUint64(hdr[hdrColOff:], colOff)
	le.PutUint64(hdr[hdrWeightOff:], weightOff)
	le.PutUint64(hdr[hdrFileSize:], size)
	le.PutUint32(hdr[hdrNameLen:], uint32(len(g.Name)))
	copy(hdr[hdrName:], g.Name)

	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	err := durable.WriteFile(path, 0o600, func(f *os.File) error {
		write := func(at uint64, b []byte) error {
			_, err := f.WriteAt(b, int64(at))
			return err
		}
		err := write(0, hdr)
		if err == nil {
			err = write(rowPtrOff, u64Bytes(g.RowPtr))
		}
		if err == nil {
			err = write(colOff, u32Bytes(g.Col))
		}
		if err == nil && g.Weight != nil {
			err = write(weightOff, f32Bytes(g.Weight))
		}
		if err == nil {
			err = write(end, []byte(csrTrailer))
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("graph: writing %s: %w", path, err)
	}
	return nil
}

// OpenMMap opens an on-disk CSR file read-only and maps it. On
// little-endian hosts the returned graph aliases the mapping
// (Backing()==MMap, release with Close); elsewhere the file is decoded
// into an InMemory graph. Structural damage — wrong magic or version,
// truncation, out-of-range sections — is reported as an error.
func OpenMMap(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := uint64(st.Size())
	if size < csrHeaderSize+uint64(len(csrTrailer)) {
		return nil, fmt.Errorf("graph: %s: file too short (%d bytes) for CSR header", path, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("graph: mmap %s: %w", path, err)
	}
	g, err := decodeMapped(path, data, size)
	if err != nil {
		syscall.Munmap(data)
		return nil, err
	}
	if g.mapped == nil {
		// Decoded copy (big-endian host): the mapping is no longer needed.
		syscall.Munmap(data)
	}
	return g, nil
}

// decodeMapped validates the header/trailer of a mapped CSR file and
// builds a Graph over it.
func decodeMapped(path string, data []byte, size uint64) (*Graph, error) {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("graph: %s: %s", path, fmt.Sprintf(format, args...))
	}
	if string(data[:len(csrMagic)]) != csrMagic {
		return nil, bad("bad magic %q (not a DVM CSR file)", data[:len(csrMagic)])
	}
	le := binary.LittleEndian
	if v := le.Uint32(data[hdrVersion:]); v != csrVersion {
		return nil, bad("unsupported CSR version %d (want %d)", v, csrVersion)
	}
	flags := le.Uint32(data[hdrFlags:])
	v := le.Uint64(data[hdrV:])
	e := le.Uint64(data[hdrE:])
	users := le.Uint64(data[hdrUsers:])
	items := le.Uint64(data[hdrItems:])
	rowPtrOff := le.Uint64(data[hdrRowPtrOff:])
	colOff := le.Uint64(data[hdrColOff:])
	weightOff := le.Uint64(data[hdrWeightOff:])
	fileSize := le.Uint64(data[hdrFileSize:])
	nameLen := le.Uint32(data[hdrNameLen:])

	if fileSize != size {
		return nil, bad("header claims %d bytes, file has %d (truncated or torn)", fileSize, size)
	}
	if string(data[size-uint64(len(csrTrailer)):]) != csrTrailer {
		return nil, bad("missing trailer magic (truncated or torn)")
	}
	if v > 1<<40 || e > 1<<40 {
		return nil, bad("implausible shape V=%d E=%d", v, e)
	}
	if nameLen > csrMaxName {
		return nil, bad("name length %d out of range", nameLen)
	}
	section := func(what string, off, n uint64) error {
		if off%8 != 0 || off < csrHeaderSize || off+n > size-uint64(len(csrTrailer)) {
			return bad("%s section [%d,+%d) out of range (file %d bytes)", what, off, n, size)
		}
		return nil
	}
	if err := section("RowPtr", rowPtrOff, 8*(v+1)); err != nil {
		return nil, err
	}
	if err := section("Col", colOff, 4*e); err != nil {
		return nil, err
	}
	weightless := flags&flagWeightless != 0
	if !weightless {
		if err := section("Weight", weightOff, 4*e); err != nil {
			return nil, err
		}
	} else if weightOff != 0 {
		return nil, bad("weightless flag set but Weight offset %d non-zero", weightOff)
	}

	g := &Graph{
		Name:      string(data[hdrName : hdrName+uint64(nameLen)]),
		V:         int(v),
		Bipartite: flags&flagBipartite != 0,
		Users:     int(users),
		Items:     int(items),
	}
	if hostLittleEndian {
		g.mapped = data
		g.RowPtr = unsafe.Slice((*uint64)(unsafe.Pointer(&data[rowPtrOff])), v+1)
		g.Col = unsafe.Slice((*uint32)(unsafe.Pointer(&data[colOff])), e)
		if !weightless {
			g.Weight = unsafe.Slice((*float32)(unsafe.Pointer(&data[weightOff])), e)
		}
	} else {
		g.RowPtr = make([]uint64, v+1)
		for i := range g.RowPtr {
			g.RowPtr[i] = le.Uint64(data[rowPtrOff+8*uint64(i):])
		}
		g.Col = make([]uint32, e)
		for i := range g.Col {
			g.Col[i] = le.Uint32(data[colOff+4*uint64(i):])
		}
		if !weightless {
			g.Weight = make([]float32, e)
			for i := range g.Weight {
				bits := le.Uint32(data[weightOff+4*uint64(i):])
				g.Weight[i] = *(*float32)(unsafe.Pointer(&bits))
			}
		}
	}
	if g.RowPtr[0] != 0 || g.RowPtr[v] != e {
		g.Close()
		return nil, bad("RowPtr bounds [%d,%d] disagree with E=%d", g.RowPtr[0], g.RowPtr[v], e)
	}
	return g, nil
}

// u64Bytes, u32Bytes, f32Bytes return the little-endian byte image of a
// slice: an in-place alias on LE hosts, an encoded copy elsewhere.
func u64Bytes(s []uint64) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 8*len(s))
	}
	b := make([]byte, 8*len(s))
	for i, x := range s {
		binary.LittleEndian.PutUint64(b[8*i:], x)
	}
	return b
}

func u32Bytes(s []uint32) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 4*len(s))
	}
	b := make([]byte, 4*len(s))
	for i, x := range s {
		binary.LittleEndian.PutUint32(b[4*i:], x)
	}
	return b
}

func f32Bytes(s []float32) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 4*len(s))
	}
	b := make([]byte, 4*len(s))
	for i, x := range s {
		binary.LittleEndian.PutUint32(b[4*i:], *(*uint32)(unsafe.Pointer(&x)))
	}
	return b
}
