package cliutil

import "testing"

func TestParseAlgorithm(t *testing.T) {
	for name, want := range map[string]string{
		"proposed":        "proposed-3d",
		"baseline":        "baseline-3d",
		"gpu-single":      "gpu-single",
		"gpu-multi":       "gpu-multi",
		"naive-allreduce": "proposed-3d-naive-allreduce",
	} {
		a, err := ParseAlgorithm(name)
		if err != nil {
			t.Fatalf("ParseAlgorithm(%q): %v", name, err)
		}
		if a.String() != want {
			t.Fatalf("ParseAlgorithm(%q) = %v, want %s", name, a, want)
		}
	}
	if _, err := ParseAlgorithm("quantum"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestParseTrees(t *testing.T) {
	for _, name := range []string{"flat", "binary", "auto"} {
		if _, err := ParseTrees(name); err != nil {
			t.Fatalf("ParseTrees(%q): %v", name, err)
		}
	}
	if _, err := ParseTrees("baobab"); err == nil {
		t.Fatal("unknown tree kind accepted")
	}
}
