// Command matgen generates the paper's test-matrix analogs and reports
// their structural properties (before and after factorization) — the local
// equivalent of downloading from SuiteSparse and running the SuperLU_DIST
// symbolic phase.
//
// Usage:
//
//	matgen [-scale small|medium|large] [-matrix all|s2d9pt|...] [-factor]
//
// -matrix (which also takes "all"), -scale and the elastic group are
// internal/cliutil's; -staleness S > 0 adds the L/U-depth columns that
// calibrate S.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"text/tabwriter"

	"sptrsv/internal/cliutil"
	"sptrsv/internal/core"
	"sptrsv/internal/ctree"
	"sptrsv/internal/dist"
	"sptrsv/internal/gen"
	"sptrsv/internal/grid"
	"sptrsv/internal/sched"
)

var (
	fs       = flag.NewFlagSet("matgen", flag.ContinueOnError)
	cf       = cliutil.NewConfigFlags()
	factored = fs.Bool("factor", true, "run ordering+factorization and report fill")
)

func main() {
	cf.Matrix = "all"
	cf.Bind(fs, cliutil.Scale|cliutil.Analog|cliutil.Elastic)
	fs.Lookup("matrix").Usage += ", or all"
	cliutil.Main(fs, run)
}

func run() error {
	cfg, err := cf.Config()
	if err != nil {
		return err
	}
	// The staleness bound counts dependency levels, so report the structural
	// quantity the staleness bound S is measured against: the L- and
	// U-sweep dependency depths (from a 1x1x1 plan — depths are a property
	// of the factors, not of any particular process grid).
	elastic := cfg.Staleness > 0 && *factored

	names := gen.SuiteNames()
	if cf.Matrix != "all" {
		names = []string{cf.Matrix}
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	// row prints one table line; the L/U-depth columns are elastic-only.
	row := func(cells ...string) {
		if !elastic {
			cells = slices.Delete(cells, 7, 9)
		}
		fmt.Fprintln(tw, strings.Join(cells, "\t"))
	}
	row("analog", "stands for", "n", "nnz(A)", "nnz(LU)", "density", "supernodes", "L-depth", "U-depth", "domain")
	for _, name := range names {
		// The table is not flushed yet, so a bad -matrix or -scale fails
		// before anything is printed.
		m, err := cf.Analog(name)
		if err != nil {
			return err
		}
		lu, density, sn, lDepth, uDepth := "-", "-", "-", "-", "-"
		if *factored {
			sys, err := core.Factorize(m.A, core.FactorOptions{})
			if err != nil {
				return err
			}
			lu = fmt.Sprint(sys.NNZFactors())
			density = fmt.Sprintf("%.3g%%", 100*float64(sys.NNZFactors())/(float64(m.A.N)*float64(m.A.N)))
			sn = fmt.Sprint(sys.SN.SnCount)
			if elastic {
				plan, err := dist.New(sys.SN, sys.Tree, grid.Layout{Px: 1, Py: 1, Pz: 1}, ctree.Auto)
				if err != nil {
					return err
				}
				sc, err := sched.Of(plan)
				if err != nil {
					return err
				}
				lDepth = fmt.Sprint(sc.Grids[0].LDepth)
				uDepth = fmt.Sprint(sc.Grids[0].UDepth)
			}
		}
		row(m.Name, m.PaperName, fmt.Sprint(m.A.N), fmt.Sprint(m.A.NNZ()), lu, density, sn, lDepth, uDepth, m.Description)
	}
	tw.Flush()
	if elastic {
		fmt.Printf("\nelastic deadlines: a rank forces progress once it falls S=%d levels behind; "+
			"a sweep's forcing horizon is depth+S levels\n", cf.Staleness)
	}
	return nil
}
