// Package cliutil holds the small pieces every command in cmd/ shares:
// consistent error reporting with documented exit codes, Matrix Market
// input loading, and the algorithm/tree-kind flag vocabulary. Before this
// package each CLI had its own copies, and their failure behavior had
// drifted — notably, a missing input file exited with the same code as a
// usage error, so scripts could not tell "bad flags" from "bad file".
package cliutil

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strings"

	"sptrsv/internal/ctree"
	"sptrsv/internal/machine"
	"sptrsv/internal/mtx"
	"sptrsv/internal/sparse"
	"sptrsv/internal/trsv"
)

// Exit codes shared by all CLIs. Scripts (and scripts/check.sh) rely on
// the distinction: 1 is a usage or runtime failure, 2 specifically means
// an input file was missing or unreadable.
const (
	ExitFailure = 1
	ExitInput   = 2
)

// Fail prints "<cmd>: <err>" to stderr and exits with ExitFailure.
func Fail(cmd string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
	os.Exit(ExitFailure)
}

// FailInput reports a missing or unreadable input file as
// "<cmd>: <path>: <detail>" and exits with ExitInput. Errors that already
// carry the path (mtx.ReadFile wraps parse errors as "path: line N: ...",
// the os layer as "open path: ...") are not double-prefixed, so every
// command emits the same file-first shape regardless of which layer
// produced the error.
func FailInput(cmd, path string, err error) {
	msg := err.Error()
	var pathErr *fs.PathError
	switch {
	case errors.As(err, &pathErr) && pathErr.Path == path:
		msg = fmt.Sprintf("%s: %s: %v", path, pathErr.Op, pathErr.Err)
	case !strings.HasPrefix(msg, path+":") && !strings.HasPrefix(msg, path+" "):
		msg = path + ": " + msg
	}
	fmt.Fprintf(os.Stderr, "%s: %s\n", cmd, msg)
	os.Exit(ExitInput)
}

// LoadMTX reads a Matrix Market file and symmetrizes its pattern (the
// solvers need a symmetric nonzero structure). Any failure — the file
// missing, unreadable, or malformed — exits through FailInput.
func LoadMTX(cmd, path string) *sparse.CSR {
	a, err := mtx.ReadFile(path)
	if err != nil {
		FailInput(cmd, path, err)
	}
	return a.SymmetrizePattern()
}

// ParseAlgorithm maps the shared -algo flag vocabulary to an Algorithm.
func ParseAlgorithm(name string) (trsv.Algorithm, error) {
	switch name {
	case "proposed":
		return trsv.Proposed3D, nil
	case "baseline":
		return trsv.Baseline3D, nil
	case "gpu-single":
		return trsv.GPUSingle, nil
	case "gpu-multi":
		return trsv.GPUMulti, nil
	case "naive-allreduce":
		return trsv.Proposed3DNaiveAR, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q (want proposed, baseline, gpu-single, gpu-multi, naive-allreduce)", name)
}

// ParseSolveMode maps the shared -mode flag vocabulary to a solve mode.
func ParseSolveMode(name string) (trsv.SolveMode, error) {
	switch name {
	case "auto":
		return trsv.ModeAuto, nil
	case "strict":
		return trsv.ModeStrict, nil
	case "elastic":
		return trsv.ModeElastic, nil
	}
	return 0, fmt.Errorf("unknown solve mode %q (want auto, strict, elastic)", name)
}

// ElasticFlags validates the shared elastic-mode flag group (-mode,
// -staleness, -refine-tol, -refine-max) as one unit: the mode name must
// parse, the numeric bounds must be non-negative, and elastic mode must
// come with a positive staleness bound (S ≤ 0 elastic silently degrades to
// strict, which is never what the flag user meant).
func ElasticFlags(mode string, staleness int, refineTol float64, refineMax int) (trsv.SolveMode, error) {
	m, err := ParseSolveMode(mode)
	if err != nil {
		return 0, err
	}
	if staleness < 0 {
		return 0, fmt.Errorf("-staleness must be non-negative, got %d", staleness)
	}
	if refineTol < 0 {
		return 0, fmt.Errorf("-refine-tol must be non-negative, got %g", refineTol)
	}
	if refineMax < 0 {
		return 0, fmt.Errorf("-refine-max must be non-negative, got %d", refineMax)
	}
	if m == trsv.ModeElastic && staleness == 0 {
		return 0, fmt.Errorf("-mode elastic requires -staleness > 0")
	}
	return m, nil
}

// ParseMachine maps the shared -machine flag vocabulary to a machine
// model, with the error listing the valid names (machine.ByName, the older
// form, panics instead — fine for harnesses, not for request paths).
func ParseMachine(name string) (*machine.Model, error) {
	m, ok := machine.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown machine %q (want %s)", name, strings.Join(machine.Names(), ", "))
	}
	return m, nil
}

// ParseTrees maps the shared -trees flag vocabulary to a tree kind.
func ParseTrees(name string) (ctree.Kind, error) {
	switch name {
	case "flat":
		return ctree.Flat, nil
	case "binary":
		return ctree.Binary, nil
	case "auto":
		return ctree.Auto, nil
	}
	return 0, fmt.Errorf("unknown tree kind %q (want flat, binary, auto)", name)
}
