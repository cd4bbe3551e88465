package mtx

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"sptrsv/internal/gen"
)

func TestRoundTrip(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := gen.RandomDD(rng, 10+rng.Intn(40), 0.15)
		var sb strings.Builder
		if err := Write(&sb, a); err != nil {
			return false
		}
		back, err := Read(strings.NewReader(sb.String()))
		if err != nil {
			return false
		}
		if back.N != a.N || back.NNZ() != a.NNZ() {
			return false
		}
		for r := 0; r < a.N; r++ {
			for c := 0; c < a.N; c++ {
				if a.At(r, c) != back.At(r, c) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSymmetricExpansion(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
% a comment
3 3 4
1 1 2.0
2 2 3.0
3 3 4.0
3 1 -1.5
`
	a, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != 5 {
		t.Fatalf("nnz = %d, want 5 after expansion", a.NNZ())
	}
	if a.At(0, 2) != -1.5 || a.At(2, 0) != -1.5 {
		t.Fatal("mirror entry missing")
	}
}

func TestPatternOnlyEntries(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1\n2 2\n"
	a, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 1 || a.At(1, 1) != 1 {
		t.Fatal("default values wrong")
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":              "",
		"bad header":         "hello\n1 1 1\n",
		"array format":       "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
		"complex":            "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
		"rectangular":        "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1\n",
		"out of range":       "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n",
		"truncated":          "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1\n",
		"bad value":          "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 x\n",
		"size trailing junk": "%%MatrixMarket matrix coordinate real general\n2 2 1 extra\n1 1 1\n",
		"size short":         "%%MatrixMarket matrix coordinate real general\n2 2\n1 1 1\n",
		"negative nnz":       "%%MatrixMarket matrix coordinate real general\n2 2 -1\n",
		"zero dimension":     "%%MatrixMarket matrix coordinate real general\n0 0 0\n",
		"non-numeric size":   "%%MatrixMarket matrix coordinate real general\n2 two 1\n1 1 1\n",
		"entry junk":         "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1 junk\n",
		"zero index":         "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1\n",
		"missing size":       "%%MatrixMarket matrix coordinate real general\n% only comments\n",
		"empty row":          "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1\n2 2 1\n",
		"huge dimension":     "%%MatrixMarket matrix coordinate real general\n9223372036854775807 9223372036854775807 0\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

// TestReadErrorLineNumbers pins that parse errors name the offending line —
// the difference between a fixable report and a useless one on a
// multi-gigabyte SuiteSparse download.
func TestReadErrorLineNumbers(t *testing.T) {
	cases := []struct {
		name, in, wantLine string
	}{
		{
			"size line",
			"%%MatrixMarket matrix coordinate real general\n% c\n2 2 1 extra\n1 1 1\n",
			"line 3",
		},
		{
			"entry line",
			"%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1\n9 1 1\n",
			"line 4",
		},
		{
			"entry after comment",
			"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n% c\n2 2 1 junk\n",
			"line 5",
		},
	}
	for _, tc := range cases {
		_, err := Read(strings.NewReader(tc.in))
		if err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
		if !strings.Contains(err.Error(), tc.wantLine) {
			t.Fatalf("%s: error %q does not name %s", tc.name, err, tc.wantLine)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.mtx")
	a := gen.S2D9pt(6, 6, 1)
	if err := WriteFile(path, a); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != a.NNZ() {
		t.Fatal("file round trip changed nnz")
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.mtx")); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

// FuzzRead feeds arbitrary bytes to the reader: every input must either
// parse into a square matrix whose indices lie inside it, or return an
// error — never panic, and never size storage by a declared dimension the
// input's entries do not back. The seed corpus is in
// testdata/fuzz/FuzzRead.
func FuzzRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := Read(strings.NewReader(string(data)))
		if err != nil {
			return
		}
		if a.N <= 0 || len(a.RowPtr) != a.N+1 || a.RowPtr[a.N] != a.NNZ() {
			t.Fatalf("parsed a malformed %d-row matrix with %d entries", a.N, a.NNZ())
		}
		for _, c := range a.ColInd {
			if c < 0 || c >= a.N {
				t.Fatalf("column %d outside a %d-column matrix", c, a.N)
			}
		}
	})
}
