// Package cliutil is the flag surface and exit path every command in cmd/
// shares. ConfigFlags declares the solver configuration — matrix source,
// layout, machine, backend, elastic mode, right-hand sides, trace capacity
// — once, with one help text, one default and one validation path per
// flag; each command binds the groups it uses and declares only the flags
// of its own verb. Main runs a command and maps its outcome onto the
// documented exit codes, so nothing below main calls os.Exit.
package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"sptrsv/internal/core"
	"sptrsv/internal/ctree"
	"sptrsv/internal/gen"
	"sptrsv/internal/grid"
	"sptrsv/internal/machine"
	"sptrsv/internal/mtx"
	"sptrsv/internal/runtime"
	"sptrsv/internal/sparse"
	"sptrsv/internal/trsv"
)

// Exit codes shared by all CLIs. Scripts (and scripts/check.sh) rely on
// the distinction: 1 is a usage or runtime failure, 2 specifically means
// an input file was missing, unreadable or malformed.
const (
	ExitFailure = 1
	ExitInput   = 2
)

// Main parses the command line into fset, calls run, and exits with the
// code Run maps the outcome to.
func Main(fset *flag.FlagSet, run func() error) {
	os.Exit(Run(fset, os.Args[1:], run))
}

// Run parses args into fset, which must use flag.ContinueOnError, and
// calls run. It returns the exit code: 0 on success or -h, ExitInput when
// run fails with an *InputError, and ExitFailure for any other error or a
// bad command line. Errors are reported on fset.Output() as
// "<name>: <err>"; the flag package has already reported parse errors.
func Run(fset *flag.FlagSet, args []string, run func() error) int {
	if err := fset.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return ExitFailure
	}
	err := run()
	if err == nil {
		return 0
	}
	fmt.Fprintf(fset.Output(), "%s: %v\n", fset.Name(), err)
	if errors.As(err, new(*InputError)) {
		return ExitInput
	}
	return ExitFailure
}

// InputError is a missing, unreadable or malformed input file. Its message
// is "<path>: <detail>" whichever layer produced Err, with the path once:
// the os layer says "open <path>: ..." and the readers prefix "<path>: ".
type InputError struct {
	Path string
	Err  error
}

func (e *InputError) Error() string {
	msg := e.Err.Error()
	if pathErr := (*os.PathError)(nil); errors.As(e.Err, &pathErr) {
		msg = pathErr.Op + ": " + pathErr.Err.Error()
	}
	return e.Path + ": " + strings.TrimPrefix(msg, e.Path+": ")
}

func (e *InputError) Unwrap() error { return e.Err }

// Group selects which part of the configuration surface a command binds.
type Group uint

const (
	Scale    Group = 1 << iota // -scale
	Analog                     // -matrix
	MTX                        // -mtx
	Layout                     // -px, -py, -pz, -algo, -trees
	Machine                    // -machine
	Backend                    // -backend
	Elastic                    // -mode, -staleness, -refine-tol, -refine-max
	NRHS                       // -nrhs
	TraceCap                   // -trace-cap

	// Matrix is the matrix source: a generated analog or a Matrix Market file.
	Matrix = Scale | Analog | MTX
	// Solve is everything one solve needs.
	Solve = Matrix | Layout | Machine | Backend | Elastic | NRHS | TraceCap
)

// The flag vocabularies. Each map is the one list of valid names for its
// flag: the parser, the error message and the help text all read it.
var (
	algorithms = map[string]trsv.Algorithm{
		"proposed":        trsv.Proposed3D,
		"baseline":        trsv.Baseline3D,
		"gpu-single":      trsv.GPUSingle,
		"gpu-multi":       trsv.GPUMulti,
		"naive-allreduce": trsv.Proposed3DNaiveAR,
	}
	treeKinds  = map[string]ctree.Kind{"flat": ctree.Flat, "binary": ctree.Binary, "auto": ctree.Auto}
	solveModes = map[string]trsv.SolveMode{"auto": trsv.ModeAuto, "strict": trsv.ModeStrict, "elastic": trsv.ModeElastic}
	// backends maps -backend to whether it is the goroutine pool.
	backends = map[string]bool{"sim": false, "pool": true}
)

// choose looks name up in a vocabulary; the error lists the valid names.
func choose[T any](what, name string, vocab map[string]T) (T, error) {
	v, ok := vocab[name]
	if !ok {
		return v, fmt.Errorf("unknown %s %q (want %s)", what, name, names(vocab))
	}
	return v, nil
}

func names[T any](vocab map[string]T) string {
	var keys []string
	for k := range vocab {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return strings.Join(keys, ", ")
}

// ConfigFlags holds the raw values of the bound flags. NewConfigFlags sets
// the standard defaults; a command that needs another (figures runs at
// medium scale, matgen over the whole suite) overwrites the field before
// Bind, which uses the fields' values as the flags' defaults.
type ConfigFlags struct {
	Matrix, MTX, Scale   string
	Px, Py, Pz           int
	Algo, Trees          string
	Machine, Backend     string
	Mode                 string
	Staleness, RefineMax int
	RefineTol            float64
	NRHS, TraceCap       int

	// Trace is not a flag: a command sets it before Config to trace its
	// solves on whichever backend -backend selected.
	Trace bool
}

// NewConfigFlags returns the standard defaults.
func NewConfigFlags() *ConfigFlags {
	return &ConfigFlags{
		Matrix: "s2d9pt", Scale: "small", Px: 2, Py: 2, Pz: 2,
		Algo: "proposed", Trees: "auto", Machine: "cori-haswell", Backend: "sim",
		Mode: "auto", Staleness: 16, NRHS: 1,
	}
}

// Bind declares the flags of groups on fset and returns c.
func (c *ConfigFlags) Bind(fset *flag.FlagSet, groups Group) *ConfigFlags {
	str := func(g Group, p *string, name, usage string) {
		if groups&g != 0 {
			fset.StringVar(p, name, *p, usage)
		}
	}
	num := func(g Group, p *int, name, usage string) {
		if groups&g != 0 {
			fset.IntVar(p, name, *p, usage)
		}
	}
	str(Analog, &c.Matrix, "matrix", "matrix analog: "+strings.Join(gen.SuiteNames(), ", "))
	str(MTX, &c.MTX, "mtx", "read a Matrix Market file instead of a generated analog (symmetric pattern, no-pivoting-safe)")
	str(Scale, &c.Scale, "scale", "matrix scale: small, medium, large")
	num(Layout, &c.Px, "px", "process rows per 2D grid")
	num(Layout, &c.Py, "py", "process columns per 2D grid")
	num(Layout, &c.Pz, "pz", "number of replicated 2D grids (power of two)")
	str(Layout, &c.Algo, "algo", "algorithm: "+names(algorithms))
	str(Layout, &c.Trees, "trees", "communication trees: "+names(treeKinds))
	str(Machine, &c.Machine, "machine", "machine model: "+strings.Join(machine.Names(), ", "))
	str(Backend, &c.Backend, "backend", "backend: sim (modeled time) or pool (goroutines, wall clock)")
	str(Elastic, &c.Mode, "mode", "solve mode: auto, strict (block on every dependency), elastic (bounded staleness + iterative refinement)")
	num(Elastic, &c.Staleness, "staleness", "elastic mode's staleness bound S, in dependency levels")
	if groups&Elastic != 0 {
		fset.Float64Var(&c.RefineTol, "refine-tol", c.RefineTol, "elastic mode's acceptance threshold on ‖b−Ax‖∞ (0 = default 1e-8)")
	}
	num(Elastic, &c.RefineMax, "refine-max", "cap on elastic iterative-refinement passes (0 = default 48)")
	num(NRHS, &c.NRHS, "nrhs", "number of right-hand sides")
	num(TraceCap, &c.TraceCap, "trace-cap", "per-rank trace event capacity (0 = default 65536); overflow drops oldest events")
	return c
}

// Config validates the values into a core.Config. A command reads only
// the fields of the groups it bound; the others keep valid defaults.
func (c *ConfigFlags) Config() (core.Config, error) {
	cfg := core.Config{
		Layout: grid.Layout{Px: c.Px, Py: c.Py, Pz: c.Pz},
		Trace:  c.Trace, TraceCap: c.TraceCap,
		Staleness: c.Staleness, RefineTol: c.RefineTol, RefineMax: c.RefineMax,
	}
	var err error
	if cfg.Algorithm, err = ParseAlgorithm(c.Algo); err != nil {
		return core.Config{}, err
	}
	if cfg.Trees, err = ParseTrees(c.Trees); err != nil {
		return core.Config{}, err
	}
	if cfg.Machine, err = ParseMachine(c.Machine); err != nil {
		return core.Config{}, err
	}
	pool, err := choose("backend", c.Backend, backends)
	if err != nil {
		return core.Config{}, err
	}
	if pool { // nil Config.Backend means the DES simulator
		cfg.Backend = trsv.PoolBackend{Pool: runtime.Pool{Opts: runtime.Options{Trace: c.Trace, TraceCap: c.TraceCap}}}
	}
	if cfg.Mode, err = ParseSolveMode(c.Mode); err != nil {
		return core.Config{}, err
	}
	if err := CheckElastic(cfg); err != nil {
		return core.Config{}, err
	}
	if c.NRHS < 1 {
		return core.Config{}, fmt.Errorf("-nrhs must be positive, got %d", c.NRHS)
	}
	return cfg, nil
}

// Load validates the configuration and loads the matrix: the -mtx file
// when one is named, else the -matrix analog at -scale. A bad file is an
// *InputError. Load reports the matrix on stdout, as every command does.
func (c *ConfigFlags) Load() (core.Config, *sparse.CSR, error) {
	cfg, err := c.Config()
	if err != nil {
		return core.Config{}, nil, err
	}
	if c.MTX != "" {
		a, err := mtx.ReadFile(c.MTX)
		if err != nil {
			return core.Config{}, nil, &InputError{Path: c.MTX, Err: err}
		}
		// The solvers need a symmetric nonzero structure.
		a = a.SymmetrizePattern()
		fmt.Printf("matrix %s: n=%d, nnz=%d\n", c.MTX, a.N, a.NNZ())
		return cfg, a, nil
	}
	m, err := c.Analog(c.Matrix)
	if err != nil {
		return core.Config{}, nil, err
	}
	fmt.Printf("matrix %s (analog of %s): n=%d, nnz=%d\n", m.Name, m.PaperName, m.A.N, m.A.NNZ())
	return cfg, m.A, nil
}

// Analog generates the named analog at the bound -scale.
func (c *ConfigFlags) Analog(name string) (gen.Matrix, error) {
	scale, err := gen.ParseScale(c.Scale)
	if err != nil {
		return gen.Matrix{}, err
	}
	if !slices.Contains(gen.SuiteNames(), name) {
		return gen.Matrix{}, fmt.Errorf("unknown matrix %q (want %s)", name, strings.Join(gen.SuiteNames(), ", "))
	}
	return gen.Named(name, scale), nil
}

// CheckElastic validates the elastic group of cfg as one unit: the bounds
// must be non-negative, and elastic mode must come with a positive
// staleness bound (S = 0 elastic silently degrades to strict, which is
// never what was asked for). The CLIs and the solve service share it.
func CheckElastic(cfg core.Config) error {
	switch {
	case cfg.Staleness < 0:
		return fmt.Errorf("staleness must be non-negative, got %d", cfg.Staleness)
	case cfg.RefineTol < 0:
		return fmt.Errorf("refine-tol must be non-negative, got %g", cfg.RefineTol)
	case cfg.RefineMax < 0:
		return fmt.Errorf("refine-max must be non-negative, got %d", cfg.RefineMax)
	case cfg.Mode.Resolve() == trsv.ModeElastic && cfg.Staleness == 0:
		return fmt.Errorf("elastic mode requires staleness > 0, got %d", cfg.Staleness)
	}
	return nil
}

// ParseAlgorithm maps the -algo vocabulary to an Algorithm.
func ParseAlgorithm(name string) (trsv.Algorithm, error) {
	return choose("algorithm", name, algorithms)
}

// ParseSolveMode maps the -mode vocabulary to a solve mode.
func ParseSolveMode(name string) (trsv.SolveMode, error) {
	return choose("solve mode", name, solveModes)
}

// ParseTrees maps the -trees vocabulary to a tree kind.
func ParseTrees(name string) (ctree.Kind, error) { return choose("tree kind", name, treeKinds) }

// ParseMachine maps the -machine vocabulary to a machine model.
func ParseMachine(name string) (*machine.Model, error) {
	m, ok := machine.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown machine %q (want %s)", name, strings.Join(machine.Names(), ", "))
	}
	return m, nil
}

// WriteTrace writes res as a Chrome trace_event file at path, naming rank
// spans with trsv.TagName. A trace that dropped events is still valid, so
// it is kept with a warning on stderr.
func WriteTrace(cmd, path string, res *runtime.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var dropped *runtime.DroppedEventsError
	if err := res.WriteTraceNamed(f, trsv.TagName); errors.As(err, &dropped) {
		fmt.Fprintf(os.Stderr, "%s: warning: %d trace events dropped, raise -trace-cap\n", cmd, dropped.Dropped)
	} else if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d events) — open in chrome://tracing or ui.perfetto.dev\n", path, res.Trace.Events())
	return nil
}
