package exp

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sync/atomic"
	"testing"

	"pcmap/internal/config"
	"pcmap/internal/system"
)

func TestCacheKeySensitivity(t *testing.T) {
	cfg := config.Default().WithVariant(config.RWoWRDE)
	cfg.Memory.VerifyWrites = true
	key := CacheKey("MP4", cfg, 1000, 2000)
	if key != CacheKey("MP4", cfg, 1000, 2000) {
		t.Fatal("cache key is not deterministic")
	}
	noVerify := *cfg
	noVerify.Memory.VerifyWrites = false
	perturbed := []struct {
		name string
		key  string
	}{
		{"workload", CacheKey("MP6", cfg, 1000, 2000)},
		{"config field", CacheKey("MP4", &noVerify, 1000, 2000)},
		{"warmup", CacheKey("MP4", cfg, 999, 2000)},
		{"measure", CacheKey("MP4", cfg, 1000, 2001)},
	}
	seen := map[string]string{key: "base"}
	for _, p := range perturbed {
		if prev, dup := seen[p.key]; dup {
			t.Errorf("perturbing %s collides with %s", p.name, prev)
		}
		seen[p.key] = p.name
	}
	// Every config field is part of the key, defaults included: a
	// changed default must not be served stale results.
	cfg2 := *cfg
	cfg2.Memory.ReadQueueCap++
	if CacheKey("MP4", &cfg2, 1000, 2000) == key {
		t.Error("config change did not change the cache key")
	}
}

func TestDiskCacheRoundTrip(t *testing.T) {
	c, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load("missing"); ok {
		t.Fatal("empty cache reported a hit")
	}
	res := fakeResults(Spec{Workload: "MP4", Variant: config.RWoWRDE})
	if err := c.Store("k1", res); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Load("k1")
	if !ok {
		t.Fatal("stored entry not loadable")
	}
	if got.Workload != res.Workload || got.Variant != res.Variant {
		t.Fatalf("loaded %s/%s, want %s/%s", got.Workload, got.Variant, res.Workload, res.Variant)
	}
	if n, err := c.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d, %v; want 1 entry and no temp-file leftovers", n, err)
	}
}

func TestDiskCacheCorruptionIsAMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"truncated": `{"Workload":"MP4","Var`,
		"empty":     "",
		"null":      "null",
		"no-mem":    `{"Workload":"MP4"}`,
	} {
		if err := os.WriteFile(filepath.Join(dir, name+".json"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Load(name); ok {
			t.Errorf("%s entry loaded as a hit; corruption must be a miss", name)
		}
	}
}

// runReliabilityMarkdown renders the reliability figure through r and
// returns its markdown — the byte-level artifact the resume contract is
// stated in.
func runReliabilityMarkdown(t *testing.T, r *Runner) string {
	t.Helper()
	f, err := Reliability(context.Background(), r, "MP4", config.RWoWRDE)
	if err != nil {
		t.Fatal(err)
	}
	return f.Table.Markdown()
}

// TestResumeByteIdentical is the ISSUE's resume acceptance test: a
// sweep killed partway (modeled as a runner that cached only 3 of the 5
// reliability points) and re-run with Resume must execute only the
// missing simulations and produce byte-identical report output.
func TestResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 8 real simulations")
	}
	// Reference: the uninterrupted sweep, no cache involved.
	ref := runReliabilityMarkdown(t, testRunner())

	dir := t.TempDir()
	// Phase 1: "interrupted" sweep — only the first 3 points complete
	// before the kill, each landing in the disk cache.
	partial := testRunner()
	var err error
	if partial.Cache, err = NewDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	for _, p := range reliabilityPoints[:3] {
		if _, err := partial.Run(Spec{Workload: "MP4", Variant: config.RWoWRDE,
			EnduranceBudget: p.Budget, DriftProb: p.Drift, VerifyWrites: true}); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := partial.Cache.Len(); err != nil || n != 3 {
		t.Fatalf("cache has %d entries, %v; want 3", n, err)
	}

	// Phase 2: resume in a fresh runner (fresh process: no memo). Count
	// real executions through the simulate hook — only the 2 missing
	// points may simulate.
	resumed := testRunner()
	if resumed.Cache, err = NewDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	resumed.Resume = true
	var executed int32
	resumed.simulate = func(ctx context.Context, cfg *config.Config, workload string, warmup, measure uint64) (*system.Results, error) {
		atomic.AddInt32(&executed, 1)
		return resumed.defaultSimulate(ctx, cfg, workload, warmup, measure)
	}
	got := runReliabilityMarkdown(t, resumed)

	if n := atomic.LoadInt32(&executed); n != 2 {
		t.Errorf("resume executed %d simulations, want exactly the 2 missing", n)
	}
	if hits := resumed.CacheHits(); hits != 3 {
		t.Errorf("resume loaded %d cached runs, want 3", hits)
	}
	if got != ref {
		t.Errorf("resumed report differs from uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", ref, got)
	}
	// The resumed sweep back-fills the cache: all 5 points present.
	if n, err := resumed.Cache.Len(); err != nil || n != 5 {
		t.Errorf("cache has %d entries after resume, %v; want 5", n, err)
	}
}

// TestCacheCorruptionQuarantine is the corruption-injection test: a
// cache entry damaged on disk — bit rot inside the payload, or bytes
// that no longer parse at all — must read as a miss, move aside as
// key.json.corrupt, and leave the key free for the re-executed run to
// rewrite. A corrupt entry must never fail the sweep or, worse, feed
// corrupted Results into a resumed report.
func TestCacheCorruptionQuarantine(t *testing.T) {
	corruptions := []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"payload bit flip", func(b []byte) []byte {
			// Flip one digit inside the results payload without breaking
			// JSON syntax: the checksum, not the parser, must catch it.
			i := bytes.Index(b, []byte(`"IPCSum":`))
			if i < 0 {
				t.Fatal("encoded entry has no IPCSum field")
			}
			c := append([]byte(nil), b...)
			c[i+len(`"IPCSum":`)] ^= 0x01 // '1' <-> '0'
			return c
		}},
		{"truncation", func(b []byte) []byte { return b[:len(b)/2] }},
		{"garbage", func(b []byte) []byte { return []byte("not json at all") }},
		{"huge bucket count", func(b []byte) []byte {
			// A well-formed, correctly summed entry whose latency
			// tracker claims 1<<62 buckets: the decoder, not the
			// checksum, must refuse it, without sizing an allocation.
			var ent cacheEntry
			if err := json.Unmarshal(b, &ent); err != nil {
				t.Fatal(err)
			}
			re := regexp.MustCompile(`"bucketCount":\d+`)
			if !re.Match(ent.Results) {
				t.Fatal("encoded entry has no bucketCount field")
			}
			ent.Results = re.ReplaceAll(ent.Results, []byte(`"bucketCount":4611686018427387904`))
			sum := sha256.Sum256(ent.Results)
			ent.Sum = hex.EncodeToString(sum[:])
			c, err := json.Marshal(ent)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cache, err := NewDiskCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			spec := Spec{Workload: "MP4", Variant: config.Baseline}
			key := CacheKey(spec.Workload, config.Default(), 100, 1000)
			res := fakeResults(spec)
			res.IPCSum = 1.5
			if err := cache.Store(key, res); err != nil {
				t.Fatal(err)
			}
			if _, ok := cache.Load(key); !ok {
				t.Fatal("pristine entry must load")
			}

			path := filepath.Join(dir, key+".json")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mangle(data), 0o644); err != nil {
				t.Fatal(err)
			}

			if _, ok := cache.Load(key); ok {
				t.Fatal("corrupt entry served as a hit")
			}
			if _, err := os.Stat(path + QuarantineSuffix); err != nil {
				t.Errorf("corrupt entry not quarantined: %v", err)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("corrupt entry still addressable at %s (err %v)", path, err)
			}
			if n, err := cache.Len(); err != nil || n != 0 {
				t.Errorf("Len = %d, %v; quarantined files must not count", n, err)
			}

			// The key is free again: re-store and reload round-trips.
			if err := cache.Store(key, res); err != nil {
				t.Fatalf("re-store after quarantine: %v", err)
			}
			got, ok := cache.Load(key)
			if !ok {
				t.Fatal("rewritten entry must load")
			}
			//pcmaplint:ignore floatcmp round-trip of a stored value, no arithmetic in between
			if got.IPCSum != res.IPCSum {
				t.Errorf("rewritten entry IPCSum = %v, want %v", got.IPCSum, res.IPCSum)
			}
		})
	}
}

// TestResumeSurvivesCorruptEntry runs the quarantine path through the
// Runner: a resumed sweep that finds its cached entry corrupted
// re-simulates that point instead of failing or serving bad data.
func TestResumeSurvivesCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	r := testRunner()
	var err error
	if r.Cache, err = NewDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	spec := Spec{Workload: "MP4", Variant: config.Baseline}
	r.simulate = func(_ context.Context, cfg *config.Config, workload string, warmup, measure uint64) (*system.Results, error) {
		return fakeResults(spec), nil
	}
	if _, err := r.Run(spec); err != nil {
		t.Fatal(err)
	}

	// Corrupt the single entry on disk.
	matches, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("cache files = %v, %v; want exactly one", matches, err)
	}
	if err := os.WriteFile(matches[0], []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Fresh runner (fresh process): resume must re-execute, not fail.
	r2 := testRunner()
	if r2.Cache, err = NewDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	r2.Resume = true
	var executed int32
	r2.simulate = func(_ context.Context, cfg *config.Config, workload string, warmup, measure uint64) (*system.Results, error) {
		atomic.AddInt32(&executed, 1)
		return fakeResults(spec), nil
	}
	if _, err := r2.Run(spec); err != nil {
		t.Fatalf("resume over a corrupt entry failed: %v", err)
	}
	if n := atomic.LoadInt32(&executed); n != 1 {
		t.Errorf("%d executions, want 1 (corrupt entry re-simulates)", n)
	}
	if hits := r2.CacheHits(); hits != 0 {
		t.Errorf("%d cache hits, want 0", hits)
	}
	// The re-executed run rewrote a healthy entry.
	if _, err := r2.Run(spec); err != nil {
		t.Fatal(err)
	}
	if n, err := r2.Cache.Len(); err != nil || n != 1 {
		t.Errorf("cache has %d entries, %v; want 1 healthy entry", n, err)
	}
}
