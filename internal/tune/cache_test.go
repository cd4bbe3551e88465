package tune

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"sptrsv/internal/core"
	"sptrsv/internal/ctree"
	"sptrsv/internal/grid"
	"sptrsv/internal/machine"
	"sptrsv/internal/trsv"
)

func testEntry() Entry {
	return Entry{
		Px: 4, Py: 4, Pz: 2,
		Algorithm: "proposed-3d", Trees: "auto",
		Makespan: 1.5e-4, Default: 2.0e-4,
	}
}

func TestCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("empty cache claims a hit")
	}
	want := testEntry()
	if err := c.Put("k", want); err != nil {
		t.Fatal(err)
	}
	// Same handle.
	got, ok := c.Get("k")
	if !ok || got != want {
		t.Fatalf("get after put: ok=%v got=%+v", ok, got)
	}
	// Fresh handle over the same directory: persisted round trip.
	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok = c2.Get("k")
	if !ok || got != want {
		t.Fatalf("get after reload: ok=%v got=%+v", ok, got)
	}
	if c2.Len() != 1 {
		t.Fatalf("len=%d", c2.Len())
	}
	// Entry decodes back into a runnable config shape.
	cfg, err := got.Config(machine.CoriHaswell())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Layout.Px != 4 || cfg.Layout.Pz != 2 {
		t.Fatalf("decoded layout %+v", cfg.Layout)
	}
}

func TestCacheCorruptedFileStartsEmpty(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, cacheFileName)
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatalf("corrupted cache file must not fail Open: %v", err)
	}
	if c.Len() != 0 {
		t.Fatalf("corrupted cache served %d entries", c.Len())
	}
	// The next Put replaces the corrupted file with a valid one.
	if err := c.Put("k", testEntry()); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get("k"); !ok {
		t.Fatal("recovered cache lost the entry")
	}
}

func TestCacheStaleVersionIgnored(t *testing.T) {
	dir := t.TempDir()
	raw, err := json.Marshal(cacheFile{
		Version: CacheSchemaVersion + 1,
		Entries: map[string]Entry{"k": testEntry()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, cacheFileName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("stale-schema entry served")
	}
}

// TestCacheInMemory: an empty directory opens a working cache that keeps
// its entries in memory and writes no file.
func TestCacheInMemory(t *testing.T) {
	c, err := OpenCache("")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k", testEntry()); err != nil {
		t.Fatal(err)
	}
	if e, ok := c.Get("k"); !ok || e != testEntry() || c.Len() != 1 {
		t.Fatalf("in-memory cache lost its entry: %+v ok=%v len=%d", e, ok, c.Len())
	}
	if _, err := os.Stat(cacheFileName); !os.IsNotExist(err) {
		t.Fatalf("in-memory Put wrote %s (stat: %v)", cacheFileName, err)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := string(rune('a' + i%4))
			if i%2 == 0 {
				if err := c.Put(key, testEntry()); err != nil {
					t.Error(err)
				}
			} else {
				c.Get(key)
			}
		}(i)
	}
	wg.Wait()
}

func TestEntryConfigRejectsUnknownNames(t *testing.T) {
	e := testEntry()
	e.Algorithm = "warp-drive"
	if _, err := e.Config(machine.CoriHaswell()); err == nil {
		t.Fatal("unknown algorithm decoded")
	}
	e = testEntry()
	e.Trees = "baobab"
	if _, err := e.Config(machine.CoriHaswell()); err == nil {
		t.Fatal("unknown tree kind decoded")
	}
}

func TestNRHSClassAndKey(t *testing.T) {
	if NRHSClass(1) != "single" || NRHSClass(0) != "single" || NRHSClass(50) != "multi" {
		t.Fatal("nrhs classes wrong")
	}
}

// TestCacheLoadsEngineFieldEntries: schema-2 files written while the
// solver still had an engine axis and a sweep-chunk knob carry "exec" and
// "level_chunk" fields. Both are ignored — every value they could hold
// produced bit-identical results — so such entries keep loading, to the
// same configuration as an entry without them.
func TestCacheLoadsEngineFieldEntries(t *testing.T) {
	const file = `{
  "version": 2,
  "entries": {
    "h": {"px": 4, "py": 4, "pz": 2, "algorithm": "proposed-3d", "trees": "binary", "exec": "handler", "level_chunk": 16, "makespan": 0.00015, "default_makespan": 0.0002},
    "s": {"px": 4, "py": 4, "pz": 2, "algorithm": "proposed-3d", "trees": "binary", "exec": "sched", "level_chunk": 16, "makespan": 0.00015, "default_makespan": 0.0002},
    "c": {"px": 4, "py": 4, "pz": 2, "algorithm": "proposed-3d", "trees": "binary", "level_chunk": 1, "makespan": 0.00015, "default_makespan": 0.0002},
    "n": {"px": 4, "py": 4, "pz": 2, "algorithm": "proposed-3d", "trees": "binary", "makespan": 0.00015, "default_makespan": 0.0002}
  }
}`
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, cacheFileName), []byte(file), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.CoriHaswell()
	want := core.Config{
		Layout: grid.Layout{Px: 4, Py: 4, Pz: 2}, Algorithm: trsv.Proposed3D,
		Trees: ctree.Binary, Machine: m,
	}
	for _, key := range []string{"h", "s", "c", "n"} {
		e, ok := c.Get(key)
		if !ok {
			t.Fatalf("entry %q not loaded", key)
		}
		cfg, err := e.Config(m)
		if err != nil {
			t.Fatalf("entry %q: %v", key, err)
		}
		if !reflect.DeepEqual(cfg, want) {
			t.Fatalf("entry %q decoded to %+v, want %+v", key, cfg, want)
		}
	}
}
