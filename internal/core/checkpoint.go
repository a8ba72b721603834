package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// checkpointMagic identifies the file format; bump on incompatible
// layout changes so a resume against an old file fails loudly instead
// of silently dropping cells.
const checkpointMagic = "dvm/1"

// defaultSyncEvery is the Record auto-fsync cadence: every N appended
// records the file is synced to stable storage, so a MACHINE crash (not
// just a process crash, which loses nothing past the OS page cache)
// loses at most the last N cells plus the in-flight append. N trades
// durability against fsync stalls on sweeps of thousands of cheap
// cells; the service tier tightens it per job store.
const defaultSyncEvery = 32

// Checkpoint persists completed sweep cells as JSONL so an interrupted
// run can resume skipping them. The format is one JSON object per line:
// a header line
//
//	{"checkpoint":"dvm/1","profile":"small"}
//
// followed by one record per completed cell
//
//	{"key":"fig2/BFS/Wiki","value":{...}}
//
// Records append under a mutex in completion order — which is
// nondeterministic under -j, and deliberately so: the checkpoint is a
// cache keyed by cell name, not an ordered artifact. Determinism of
// the *rendered tables* is preserved because restored values feed the
// same index-ordered collection path computed values do.
//
// Crash tolerance: a process killed mid-append leaves a truncated last
// line; Open tolerates (and discards) exactly one trailing malformed
// line, and the next Record overwrites it. Malformed lines elsewhere
// abort the resume — that is corruption, not interruption. So a live
// append that fails part-way is cut back before any other cell's
// Record can append after it (appendLine).
type Checkpoint struct {
	mu      sync.Mutex
	f       *os.File
	done    map[string]json.RawMessage
	profile string
	// headerLoaded records that load() saw a valid header, so reopening
	// in append mode must not write a second one.
	headerLoaded bool
	// validLen is the byte offset after the last intact record; a torn
	// trailing fragment beyond it is truncated away on resume so the
	// next append starts on a clean line.
	validLen int64
	// syncEvery is the auto-fsync cadence (records per Sync); sinceSync
	// counts appends since the last one.
	syncEvery int
	sinceSync int
	// syncFn performs the fsync. It defaults to f.Sync and exists as a
	// seam so durability tests can count exactly when the checkpoint
	// reaches stable storage.
	syncFn func() error
	// writeFn appends one record line. It defaults to f.Write and is
	// the seam tests use to fail or shorten an append.
	writeFn func([]byte) (int, error)
	// end is the byte offset after the last intact line: where the next
	// append must start. A failed append is cut back to it.
	end int64
	// broken latches an append that failed and could not be cut back:
	// a later append would land after the torn fragment and make it an
	// interior corrupt line, so every later Record returns this error.
	broken error
}

// OpenCheckpoint opens (or creates) the checkpoint at path for the
// named experiment profile. With resume false the file is truncated —
// a fresh sweep; with resume true existing records are loaded and
// subsequent Lookup calls serve them. A profile mismatch on resume is
// an error: cells of different profiles are different simulations that
// must never satisfy each other's keys.
func OpenCheckpoint(path, profile string, resume bool) (*Checkpoint, error) {
	c := &Checkpoint{done: make(map[string]json.RawMessage), profile: profile}
	if resume {
		if err := c.load(path); err != nil {
			return nil, err
		}
	}
	flags := os.O_CREATE | os.O_WRONLY
	if resume {
		flags |= os.O_APPEND
	} else {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	c.f = f
	c.syncEvery = defaultSyncEvery
	c.syncFn = f.Sync
	c.writeFn = f.Write
	if c.headerLoaded {
		// Drop any torn trailing fragment so O_APPEND writes start on
		// a clean line.
		if err := f.Truncate(c.validLen); err != nil {
			f.Close()
			return nil, err
		}
		c.end = c.validLen
	} else {
		if err := c.writeHeader(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return c, nil
}

func (c *Checkpoint) writeHeader() error {
	hdr := struct {
		Checkpoint string `json:"checkpoint"`
		Profile    string `json:"profile"`
	}{checkpointMagic, c.profile}
	b, err := json.Marshal(hdr)
	if err != nil {
		return err
	}
	n, err := c.f.Write(append(b, '\n'))
	c.end = int64(n)
	return err
}

// appendLine writes one record line at c.end. A failed or short write
// is cut back to c.end, so the next append starts on a clean line;
// if the cut fails too, the checkpoint latches the error and takes no
// further appends.
func (c *Checkpoint) appendLine(line []byte) error {
	n, err := c.writeFn(line)
	if err == nil && n < len(line) {
		err = io.ErrShortWrite
	}
	if err == nil {
		c.end += int64(n)
		return nil
	}
	if terr := c.cutBack(); terr != nil {
		c.broken = fmt.Errorf("core: checkpoint append failed (%v) and may have left a torn line: %w", err, terr)
		return c.broken
	}
	return err
}

// cutBack truncates the file to c.end and puts the write offset there
// (a file opened without O_APPEND would otherwise resume past the cut).
func (c *Checkpoint) cutBack() error {
	if err := c.f.Truncate(c.end); err != nil {
		return err
	}
	_, err := c.f.Seek(c.end, io.SeekStart)
	return err
}

// load restores the records of the checkpoint at path with the resume
// tolerance rules: exactly one torn/malformed FINAL line is discarded
// (an interrupted append); anywhere else it is corruption. A missing or
// empty file resumes nothing.
func (c *Checkpoint) load(path string) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil // nothing to resume from; start fresh
	}
	if err != nil {
		return err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	var profile string
	lineNo := 0
	var pendingErr error
	for {
		raw, rerr := r.ReadBytes('\n')
		if len(raw) == 0 {
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				return rerr
			}
			continue
		}
		// A record is intact only when its terminating newline made it
		// to disk; a newline-less tail is a torn append.
		intact := raw[len(raw)-1] == '\n'
		line := bytes.TrimSuffix(raw, []byte("\n"))
		lineNo++
		if pendingErr != nil {
			// The torn/malformed line was not the last one: corruption.
			return pendingErr
		}
		switch {
		case len(line) == 0:
			// blank line; keep it inside validLen
		case lineNo == 1:
			var hdr struct {
				Checkpoint string `json:"checkpoint"`
				Profile    string `json:"profile"`
			}
			if err := json.Unmarshal(line, &hdr); err != nil || hdr.Checkpoint == "" {
				return fmt.Errorf("core: %s is not a checkpoint file", path)
			}
			if hdr.Checkpoint != checkpointMagic {
				return fmt.Errorf("core: checkpoint %s has format %q, want %q", path, hdr.Checkpoint, checkpointMagic)
			}
			if !intact {
				return fmt.Errorf("core: %s is not a checkpoint file", path)
			}
			profile = hdr.Profile
		default:
			var rec ckptRec
			if err := json.Unmarshal(line, &rec); err != nil || rec.Key == "" || !intact {
				// A torn final append from an interrupted run is
				// tolerated (and truncated away) when nothing follows;
				// anywhere else it is corruption.
				pendingErr = fmt.Errorf("core: checkpoint %s line %d is corrupt", path, lineNo)
				continue
			}
			c.done[rec.Key] = rec.Value
		}
		c.validLen += int64(len(raw))
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return rerr
		}
	}
	// pendingErr still set here means the torn line was the final one —
	// an interrupted append; it sits past validLen and gets discarded.
	if profile == "" && c.validLen == 0 {
		return nil // empty file: start fresh
	}
	if profile != c.profile {
		return fmt.Errorf("core: checkpoint %s was written by profile %q, cannot resume profile %q", path, profile, c.profile)
	}
	c.headerLoaded = true
	return nil
}

// ckptRec is one stored cell: a checkpoint record line.
type ckptRec struct {
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
}

// Lookup reports whether the cell named key already completed, decoding
// its stored value into v (a pointer) when found. A decode failure is
// an error — better to fail the resume than to render a table from a
// half-read cell.
func (c *Checkpoint) Lookup(key string, v any) (bool, error) {
	if c == nil {
		return false, nil
	}
	c.mu.Lock()
	raw, ok := c.done[key]
	c.mu.Unlock()
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return false, fmt.Errorf("core: checkpoint cell %q: %w", key, err)
	}
	return true, nil
}

// Record persists one completed cell. The line is flushed to the OS
// before Record returns, so a SIGKILL immediately after loses at most
// the in-flight append (which load tolerates), never a completed one.
// Every syncEvery-th append additionally fsyncs, bounding what a
// machine crash (power loss, kernel panic) can lose to that many cells.
func (c *Checkpoint) Record(key string, v any) error {
	if c == nil {
		return nil
	}
	// The value is marshalled on its own so the in-memory index holds
	// exactly what load() restores from disk — the bare value, not the
	// whole record line — keeping Lookup-after-Record coherent within
	// one process.
	vb, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b, err := json.Marshal(ckptRec{Key: key, Value: vb})
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.done[key]; dup {
		return nil // a resumed run re-recording a restored cell
	}
	if c.broken != nil {
		return c.broken
	}
	if err := c.appendLine(append(b, '\n')); err != nil {
		return err
	}
	c.done[key] = vb
	c.sinceSync++
	if c.sinceSync >= c.syncEvery {
		c.sinceSync = 0
		return c.syncFn()
	}
	return nil
}

// SetSyncEvery retargets the Record auto-fsync cadence: every n
// appended records the file is synced to stable storage (n <= 0
// restores the default). A service-tier job store uses n = 1 so a
// machine crash loses at most the in-flight cell.
func (c *Checkpoint) SetSyncEvery(n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if n <= 0 {
		n = defaultSyncEvery
	}
	c.syncEvery = n
}

// Sync forces the appended records to stable storage now — the drain
// path's durability point before reporting a job resumable.
func (c *Checkpoint) Sync() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	c.sinceSync = 0
	return c.syncFn()
}

// Len reports how many completed cells the checkpoint holds.
func (c *Checkpoint) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.done)
}

// Close syncs and closes the underlying file.
func (c *Checkpoint) Close() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.syncFn()
	if cerr := c.f.Close(); err == nil {
		err = cerr
	}
	c.f = nil
	return err
}
