package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"pcmap/internal/config"
	"pcmap/internal/system"
)

// cacheFormatVersion is folded into every cache key. Bump it whenever
// the serialized Results format or the simulation's meaning changes in
// a way that should invalidate old entries; stale files are then simply
// never addressed again (no migration logic needed).
//
// Version history: 1 = bare Results JSON; 2 = checksummed envelope
// (cacheEntry); 3 = every metrics tracker required on decode (entries
// from before the content-aware histograms lack SetBits/ResetBits);
// 4 = keyed by the resolved run (workload and config) without the Spec
// that named it, and Config lost Core.ClockGHz and Memory.RanksPerChan.
const cacheFormatVersion = 4

// CacheKey derives the content address of one run: a SHA-256 over the
// cache format version, the workload, the fully resolved configuration,
// and the instruction budgets. Everything a simulation's output depends
// on is in the hash — two runs share a key if and only if they are the
// same deterministic computation — so resuming can never serve a result
// produced under different settings.
func CacheKey(workload string, cfg *config.Config, warmup, measure uint64) string {
	payload, err := json.Marshal(struct {
		Version         int
		Workload        string
		Config          *config.Config
		Warmup, Measure uint64
	}{cacheFormatVersion, workload, cfg, warmup, measure})
	if err != nil {
		// Config is plain data and validated finite before it runs;
		// marshaling cannot fail.
		panic(fmt.Sprintf("exp: cache key: %v", err))
	}
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// DiskCache persists simulation Results content-addressed by CacheKey,
// one JSON file per run. Writes go through a temp file in the same
// directory followed by an atomic rename, so a sweep killed mid-write
// leaves either a complete entry or none — never a truncated file a
// resume could misread.
type DiskCache struct {
	dir string
}

// NewDiskCache opens (creating if needed) a cache rooted at dir.
func NewDiskCache(dir string) (*DiskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("exp: cache dir: %w", err)
	}
	return &DiskCache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *DiskCache) Dir() string { return c.dir }

func (c *DiskCache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// cacheEntry is the on-disk envelope of one cached run: the encoded
// Results plus a SHA-256 over those exact bytes. The checksum detects
// bit rot and partial writes that still parse as JSON — without it a
// silently corrupted float would flow straight into resumed reports.
type cacheEntry struct {
	Sum     string          `json:"sha256"`
	Results json.RawMessage `json:"results"`
}

// QuarantineSuffix is appended to a corrupt cache entry's filename when
// Load moves it aside. Quarantined files keep the evidence for
// diagnosis while freeing the key: the run re-executes and overwrites
// the entry, so a sweep survives cache corruption instead of failing
// on it.
const QuarantineSuffix = ".corrupt"

// Load returns the cached Results for key, or ok=false on a miss. An
// unreadable, checksum-mismatched, or undecodable entry counts as a
// miss, and the corrupt file is renamed aside (key.json.corrupt) so
// the re-executed run can rewrite the entry while the bad bytes stay
// available for inspection.
func (c *DiskCache) Load(key string) (res *system.Results, ok bool) {
	p := c.path(key)
	data, err := os.ReadFile(p)
	if err != nil {
		return nil, false
	}
	var ent cacheEntry
	if err := json.Unmarshal(data, &ent); err != nil {
		c.quarantine(p)
		return nil, false
	}
	sum := sha256.Sum256(ent.Results)
	if ent.Sum != hex.EncodeToString(sum[:]) {
		c.quarantine(p)
		return nil, false
	}
	r, err := system.DecodeResults(ent.Results)
	if err != nil {
		c.quarantine(p)
		return nil, false
	}
	return r, true
}

// quarantine moves a corrupt entry aside. Rename is as atomic as the
// store path's, and a failure (e.g. the file vanished) is ignored: the
// caller already treats the entry as a miss either way.
func (c *DiskCache) quarantine(path string) {
	_ = os.Rename(path, path+QuarantineSuffix)
}

// Store persists res under key atomically (temp file + rename), inside
// a checksummed envelope Load verifies.
func (c *DiskCache) Store(key string, res *system.Results) error {
	payload, err := system.EncodeResults(res)
	if err != nil {
		return fmt.Errorf("cache store: %w", err)
	}
	sum := sha256.Sum256(payload)
	data, err := json.Marshal(cacheEntry{Sum: hex.EncodeToString(sum[:]), Results: payload})
	if err != nil {
		return fmt.Errorf("cache store: %w", err)
	}
	f, err := os.CreateTemp(c.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("cache store: %w", err)
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	if serr := f.Sync(); werr == nil {
		werr = serr
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("cache store: %w", werr)
	}
	if err := os.Rename(tmp, c.path(key)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cache store: %w", err)
	}
	return nil
}

// Len counts complete entries in the cache (diagnostics and tests).
func (c *DiskCache) Len() (int, error) {
	names, err := filepath.Glob(filepath.Join(c.dir, "*.json"))
	if err != nil {
		return 0, err
	}
	return len(names), nil
}
