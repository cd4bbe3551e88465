package tune

import (
	"os"
	"path/filepath"
	"testing"

	"sptrsv/internal/core"
	"sptrsv/internal/gen"
	"sptrsv/internal/machine"
)

// FuzzOpenCache writes arbitrary bytes as the cache file. OpenCache must
// neither panic nor fail on them: a cache must never be able to break
// tuning. Every entry it loads either fails Entry.Config or
// core.ValidateConfig (a cache miss for AutoConfig), or survives a Put and
// a second OpenCache unchanged. Seeds live in testdata/fuzz/FuzzOpenCache:
// a version-2 file with the ignored "level_chunk" and "exec" fields, a
// version-1 file, truncated JSON, null entries, an unknown algorithm and
// a negative px.
func FuzzOpenCache(f *testing.F) {
	sys, err := core.Factorize(gen.S2D9pt(8, 8, 1), core.FactorOptions{TreeDepth: 3})
	if err != nil {
		f.Fatal(err)
	}
	m := machine.CoriHaswell()
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, cacheFileName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenCache(dir)
		if err != nil {
			t.Fatalf("OpenCache failed on %q: %v", raw, err)
		}
		outDir := t.TempDir()
		out, err := OpenCache(outDir)
		if err != nil {
			t.Fatal(err)
		}
		kept := map[string]Entry{}
		for key, e := range c.file.Entries {
			cfg, err := e.Config(m)
			if err != nil || core.ValidateConfig(sys, cfg) != nil {
				continue
			}
			if err := out.Put(key, e); err != nil {
				t.Fatalf("Put(%q): %v", key, err)
			}
			kept[key] = e
		}
		back, err := OpenCache(outDir)
		if err != nil {
			t.Fatal(err)
		}
		if back.Len() != len(kept) {
			t.Fatalf("reopened cache holds %d entries, want %d", back.Len(), len(kept))
		}
		for key, want := range kept {
			if got, ok := back.Get(key); !ok || got != want {
				t.Fatalf("entry %q reloaded as %+v (present %v), want %+v", key, got, ok, want)
			}
		}
	})
}
