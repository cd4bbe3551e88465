package cliutil

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sptrsv/internal/gen"
	"sptrsv/internal/mtx"
)

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

// runCLI is a command the way every binary in cmd/ is one: the whole
// configuration surface bound on a ContinueOnError FlagSet, loaded, and
// mapped to an exit code by Run, as cmd/sptrsv does. It returns the code
// and what the command reported.
func runCLI(args ...string) (int, string) {
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	var out bytes.Buffer
	fs.SetOutput(&out)
	cf := NewConfigFlags().Bind(fs, Solve)
	code := Run(fs, args, func() error {
		_, _, err := cf.Load()
		return err
	})
	return code, out.String()
}

// runServe is cmd/serve's use of the surface: no matrix source, and
// Config alone before the service starts.
func runServe(args ...string) (int, string) {
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	var out bytes.Buffer
	fs.SetOutput(&out)
	cf := NewConfigFlags().Bind(fs, Machine|Backend|Elastic|TraceCap)
	code := Run(fs, args, func() error {
		_, err := cf.Config()
		return err
	})
	return code, out.String()
}

// TestExitCodeContract pins the exit codes scripts rely on: 0 for success
// and -h, 2 only for a bad input file, 1 for everything else — unknown
// flags, unknown names (with the valid ones listed), and elastic bounds.
func TestExitCodeContract(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.mtx")
	var buf bytes.Buffer
	if err := mtx.Write(&buf, gen.S2D9pt(6, 6, 1)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(good, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.mtx")
	if err := os.WriteFile(bad, []byte("%%MatrixMarket matrix coordinate real general\n3 3 1\n1 x 2.0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing.mtx")

	for _, tc := range []struct {
		args []string
		code int
		msg  string // substring of the report
	}{
		{nil, 0, ""},
		{[]string{"-h"}, 0, "-staleness"},
		{[]string{"-mtx", good}, 0, ""},
		{[]string{"-bogus"}, ExitFailure, "flag provided but not defined: -bogus"},
		{[]string{"-px", "two"}, ExitFailure, "invalid value"},
		{[]string{"-matrix", "nope"}, ExitFailure, "unknown matrix \"nope\" (want nlpkkt, gaas, s1mat, s2d9pt, ldoor, dielfilter)"},
		{[]string{"-machine", "nope"}, ExitFailure, "unknown machine \"nope\" (want cori-haswell, perlmutter-cpu"},
		{[]string{"-scale", "smal"}, ExitFailure, "unknown scale \"smal\" (want small, medium, large)"},
		{[]string{"-backend", "Pool"}, ExitFailure, "unknown backend \"Pool\" (want pool, sim)"},
		{[]string{"-algo", "quantum"}, ExitFailure, "unknown algorithm \"quantum\" (want baseline, gpu-multi, gpu-single, naive-allreduce, proposed)"},
		{[]string{"-trees", "baobab"}, ExitFailure, "unknown tree kind \"baobab\" (want auto, binary, flat)"},
		{[]string{"-mode", "elastic"}, ExitFailure, "flag provided but not defined: -mode"},
		{[]string{"-staleness", "-1"}, ExitFailure, "staleness must be non-negative"},
		{[]string{"-refine-tol", "-1e-9"}, ExitFailure, "refine-tol must be non-negative"},
		{[]string{"-refine-max", "-1"}, ExitFailure, "refine-max must be non-negative"},
		{[]string{"-nrhs", "0"}, ExitFailure, "-nrhs must be positive"},
		{[]string{"-trace-cap", "-5"}, ExitFailure, "-trace-cap must be non-negative"},
		{[]string{"-mtx", missing}, ExitInput, "cmd: " + missing + ": open: no such file"},
		{[]string{"-mtx", bad}, ExitInput, "cmd: " + bad + ": mtx: line 3"},
	} {
		code, out := runCLI(tc.args...)
		if code != tc.code || !strings.Contains(out, tc.msg) {
			t.Errorf("%v: exit %d, want %d; report %q, want it to contain %q", tc.args, code, tc.code, out, tc.msg)
		}
		if strings.Count(out, missing) > 1 || strings.Count(out, bad) > 1 {
			t.Errorf("%v: path reported twice: %q", tc.args, out)
		}
	}
	// The service checks the same values before it listens.
	for _, tc := range []struct {
		args []string
		code int
		msg  string
	}{
		{[]string{"-staleness", "4"}, 0, ""},
		{[]string{"-trace-cap", "-5"}, ExitFailure, "-trace-cap must be non-negative"},
		{[]string{"-staleness", "-1"}, ExitFailure, "staleness must be non-negative"},
		{[]string{"-mode", "elastic"}, ExitFailure, "flag provided but not defined: -mode"},
	} {
		code, out := runServe(tc.args...)
		if code != tc.code || !strings.Contains(out, tc.msg) {
			t.Errorf("serve %v: exit %d, want %d; report %q, want it to contain %q", tc.args, code, tc.code, out, tc.msg)
		}
	}
}

// TestBindGroups pins that a command gets only the flags of the groups it
// binds, with a preset field as the flag's default.
func TestBindGroups(t *testing.T) {
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	cf := NewConfigFlags()
	cf.Scale = "medium"
	cf.Bind(fs, Scale|Elastic)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	if got := strings.Join(names, " "); got != "refine-max refine-tol scale staleness" {
		t.Fatalf("bound flags = %q", got)
	}
	if fs.Lookup("scale").DefValue != "medium" {
		t.Fatalf("-scale default = %q, want the preset medium", fs.Lookup("scale").DefValue)
	}
	if err := fs.Parse([]string{"-staleness", "4"}); err != nil {
		t.Fatal(err)
	}
	cfg, err := cf.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Staleness != 4 {
		t.Fatalf("elastic group S=%d, want 4", cfg.Staleness)
	}
}
