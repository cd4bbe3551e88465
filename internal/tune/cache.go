package tune

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"sptrsv/internal/core"
	"sptrsv/internal/ctree"
	"sptrsv/internal/grid"
	"sptrsv/internal/machine"
	"sptrsv/internal/trsv"
)

// CacheSchemaVersion is bumped whenever the entry schema or the meaning of
// the key changes; files written by an older schema are ignored wholesale
// (a cache miss, not an error) and overwritten by the next Put.
//
// Version-2 files may carry a "level_chunk" sweep chunk or an "exec"
// engine name. Both are ignored, because every value either could hold
// produces bit-identical results, so the entry denotes the same
// configuration either way.
const CacheSchemaVersion = 2

// cacheFileName is the single JSON file a Cache keeps under its directory.
const cacheFileName = "sptrsv-tune.json"

// Entry is one tuned configuration as persisted in the cache. Algorithm
// and tree kinds are stored as their String() names so the file stays
// meaningful (and diffable) if the internal enum values move.
type Entry struct {
	Px        int     `json:"px"`
	Py        int     `json:"py"`
	Pz        int     `json:"pz"`
	Algorithm string  `json:"algorithm"`
	Trees     string  `json:"trees"`
	Makespan  float64 `json:"makespan"`         // DES makespan of the tuned config at tuning time
	Default   float64 `json:"default_makespan"` // DES makespan of the naive default at tuning time
}

// Config reconstructs the core configuration the entry denotes on machine
// model m. It fails on unknown algorithm or tree names (e.g. a file edited
// by hand), which callers treat as a cache miss.
func (e Entry) Config(m *machine.Model) (core.Config, error) {
	algo, err := parseAlgorithm(e.Algorithm)
	if err != nil {
		return core.Config{}, err
	}
	kind, err := parseTrees(e.Trees)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Layout:    grid.Layout{Px: e.Px, Py: e.Py, Pz: e.Pz},
		Algorithm: algo,
		Trees:     kind,
		Machine:   m,
	}, nil
}

func parseAlgorithm(s string) (trsv.Algorithm, error) {
	for _, a := range []trsv.Algorithm{trsv.Proposed3D, trsv.Baseline3D, trsv.GPUSingle, trsv.GPUMulti, trsv.Proposed3DNaiveAR} {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("tune: unknown algorithm %q", s)
}

func parseTrees(s string) (ctree.Kind, error) {
	switch s {
	case ctree.Flat.String():
		return ctree.Flat, nil
	case ctree.Binary.String():
		return ctree.Binary, nil
	case ctree.Auto.String():
		return ctree.Auto, nil
	}
	return 0, fmt.Errorf("tune: unknown tree kind %q", s)
}

// cacheFile is the on-disk JSON document.
type cacheFile struct {
	Version int              `json:"version"`
	Entries map[string]Entry `json:"entries"`
}

// Cache is a tuned-config store: one JSON file under a caller-chosen
// directory (or none, in memory only), loaded once at Open and guarded by
// an RWMutex so concurrent AutoConfig calls can share one Cache. Puts write
// through to disk atomically (temp file + rename).
type Cache struct {
	path string // "" keeps the cache in memory only
	mu   sync.RWMutex
	file cacheFile
}

// OpenCache loads (or initializes) the cache under dir, creating the
// directory if needed. A missing file is an empty cache; a corrupted file
// or one written by a different schema version is also treated as empty —
// a cache must never be able to break tuning — and is replaced on the
// next Put. An empty dir opens an empty in-memory cache whose Puts write
// no file.
func OpenCache(dir string) (*Cache, error) {
	c := &Cache{file: cacheFile{Version: CacheSchemaVersion, Entries: map[string]Entry{}}}
	if dir == "" {
		return c, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tune: cache dir: %w", err)
	}
	c.path = filepath.Join(dir, cacheFileName)
	raw, err := os.ReadFile(c.path)
	if err != nil {
		if os.IsNotExist(err) {
			return c, nil
		}
		return nil, fmt.Errorf("tune: cache read: %w", err)
	}
	var f cacheFile
	if json.Unmarshal(raw, &f) != nil || f.Version != CacheSchemaVersion || f.Entries == nil {
		return c, nil // corrupted or stale schema: start empty
	}
	c.file = f
	return c, nil
}

// Get returns the entry stored under key, if any.
func (c *Cache) Get(key string) (Entry, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.file.Entries[key]
	return e, ok
}

// Len returns the number of stored entries.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.file.Entries)
}

// Put stores the entry under key and persists the whole cache atomically
// (in-memory caches skip the write).
func (c *Cache) Put(key string, e Entry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.file.Entries[key] = e
	if c.path == "" {
		return nil
	}
	raw, err := json.MarshalIndent(&c.file, "", "  ")
	if err != nil {
		return fmt.Errorf("tune: cache encode: %w", err)
	}
	tmp := c.path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return fmt.Errorf("tune: cache write: %w", err)
	}
	if err := os.Rename(tmp, c.path); err != nil {
		return fmt.Errorf("tune: cache rename: %w", err)
	}
	return nil
}

// NRHSClass buckets a right-hand-side count for the cache key: the tuned
// choice differs between the GEMV regime (nrhs=1) and the GEMM regime
// (nrhs≫1, the paper's nrhs=50 runs), but not meaningfully inside them.
func NRHSClass(nrhs int) string {
	if nrhs <= 1 {
		return "single"
	}
	return "multi"
}

// Key derives the cache key for tuning sys on machine m with p ranks: the
// matrix fingerprint (n, nnz(LU), supernode count, recorded tree depth) ×
// machine name × rank budget × nrhs class. Two systems with the same
// fingerprint have structurally interchangeable tuned configs even if
// their numeric values differ.
func Key(sys *core.System, m *machine.Model, p, nrhs int) string {
	return fmt.Sprintf("%s | %s | p=%d | nrhs=%s",
		sys.Fingerprint(), m.Name, p, NRHSClass(nrhs))
}
