package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"github.com/dvm-sim/dvm/internal/durable"
)

// Distributed sweeps: `dvmrepro -shard k/n` partitions the cell matrix
// deterministically (cell index i belongs to shard i mod n), and each
// shard writes a checkpoint whose header profile carries a
// "+shard(k/n)" suffix so shard files can never satisfy a resume of the
// wrong shard — or of the unsharded sweep — by accident.
// MergeCheckpoints strips the suffix and unions the records into one
// plain checkpoint; rendering that with -resume replays the exact
// collection path of a single-box run, so tables and -metrics JSON come
// out byte-identical.

// ShardProfile returns the checkpoint profile label for shard k of n.
func ShardProfile(profile string, k, n int) string {
	return fmt.Sprintf("%s+shard(%d/%d)", profile, k, n)
}

// ParseShardProfile splits a shard checkpoint profile label back into
// its base profile and shard coordinates; ok is false for unsharded
// labels.
func ParseShardProfile(profile string) (base string, k, n int, ok bool) {
	i := strings.LastIndex(profile, "+shard(")
	if i < 0 {
		return "", 0, 0, false
	}
	if _, err := fmt.Sscanf(profile[i:], "+shard(%d/%d)", &k, &n); err != nil {
		return "", 0, 0, false
	}
	base = profile[:i]
	if ShardProfile(base, k, n) != profile || n < 1 || k < 0 || k >= n {
		return "", 0, 0, false
	}
	return base, k, n, true
}

// MergeCheckpoints unions N shard checkpoints into one unsharded
// checkpoint at dst (written atomically). All inputs must carry the
// same base profile and shard count, with distinct shard indexes; a
// cell recorded by two shards must agree byte-for-byte. It returns the
// base profile, the merged cell count, and the shard indexes with no
// input file (an incomplete fleet merge still renders — resume computes
// the missing cells — so missing shards are reported, not fatal).
func MergeCheckpoints(dst string, srcs []string) (base string, cells int, missing []int, err error) {
	if len(srcs) == 0 {
		return "", 0, nil, fmt.Errorf("core: no shard checkpoints to merge")
	}
	n := 0
	seen := map[int]string{}
	merged := map[string]json.RawMessage{}
	for _, src := range srcs {
		sc, err := scanCheckpoint(src)
		if err != nil {
			return "", 0, nil, err
		}
		b, k, sn, ok := ParseShardProfile(sc.profile)
		if !ok {
			return "", 0, nil, fmt.Errorf("core: %s is not a shard checkpoint (profile %q)", src, sc.profile)
		}
		if base == "" {
			base, n = b, sn
		} else if b != base || sn != n {
			return "", 0, nil, fmt.Errorf("core: %s is shard %d/%d of profile %q, cannot merge with %d-way shards of %q", src, k, sn, b, n, base)
		}
		if prev, dup := seen[k]; dup {
			return "", 0, nil, fmt.Errorf("core: shard %d/%d appears in both %s and %s", k, n, prev, src)
		}
		seen[k] = src
		for _, r := range sc.recs {
			if old, dup := merged[r.Key]; dup {
				if !bytes.Equal(old, r.Value) {
					return "", 0, nil, fmt.Errorf("core: cell %q differs between shards (corrupt or mismatched runs)", r.Key)
				}
				continue
			}
			merged[r.Key] = r.Value
		}
	}
	for k := 0; k < n; k++ {
		if _, ok := seen[k]; !ok {
			missing = append(missing, k)
		}
	}

	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	err = durable.WriteFile(dst, 0o600, func(f *os.File) error {
		write := func(v any) error {
			b, err := json.Marshal(v)
			if err != nil {
				return err
			}
			_, err = f.Write(append(b, '\n'))
			return err
		}
		err := write(struct {
			Checkpoint string `json:"checkpoint"`
			Profile    string `json:"profile"`
		}{checkpointMagic, base})
		for _, k := range keys {
			if err != nil {
				break
			}
			err = write(ckptRec{Key: k, Value: merged[k]})
		}
		return err
	})
	if err != nil {
		return "", 0, nil, fmt.Errorf("core: writing merged checkpoint %s: %w", dst, err)
	}
	return base, len(merged), missing, nil
}
