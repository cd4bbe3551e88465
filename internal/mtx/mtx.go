// Package mtx reads and writes Matrix Market coordinate files — the format
// the paper's SuiteSparse test matrices ship in — so users with access to
// the original matrices (nlpkkt80, ldoor, …) can run the solver on them
// directly instead of the generated analogs.
//
// Supported: `matrix coordinate real|integer general|symmetric`. Symmetric
// files are expanded to full storage on read, matching the solver's
// structurally-symmetric expectation.
package mtx

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"sptrsv/internal/sparse"
)

// Read parses a Matrix Market stream into a CSR matrix. The matrix must be
// square. Parse errors report the 1-based line number of the offending
// line.
func Read(r io.Reader) (*sparse.CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	scan := func() bool {
		if !sc.Scan() {
			return false
		}
		lineNo++
		return true
	}

	if !scan() {
		return nil, fmt.Errorf("mtx: empty input")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) != 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, fmt.Errorf("mtx: bad header %q", sc.Text())
	}
	if header[2] != "coordinate" {
		return nil, fmt.Errorf("mtx: only coordinate format supported, got %q", header[2])
	}
	switch header[3] {
	case "real", "integer":
	default:
		return nil, fmt.Errorf("mtx: unsupported field %q", header[3])
	}
	symmetric := false
	switch header[4] {
	case "general":
	case "symmetric":
		symmetric = true
	default:
		return nil, fmt.Errorf("mtx: unsupported symmetry %q", header[4])
	}

	// Skip comments; read the size line. Exactly three integer fields —
	// fmt.Sscan would silently accept trailing garbage ("2 2 1 extra"),
	// which almost always means a malformed or mislabeled file.
	rows, cols, nnz := 0, 0, -1
	for scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("mtx: line %d: size line %q needs exactly 3 fields (rows cols nnz), got %d", lineNo, line, len(f))
		}
		var err error
		if rows, err = strconv.Atoi(f[0]); err != nil {
			return nil, fmt.Errorf("mtx: line %d: bad row count %q", lineNo, f[0])
		}
		if cols, err = strconv.Atoi(f[1]); err != nil {
			return nil, fmt.Errorf("mtx: line %d: bad column count %q", lineNo, f[1])
		}
		if nnz, err = strconv.Atoi(f[2]); err != nil {
			return nil, fmt.Errorf("mtx: line %d: bad entry count %q", lineNo, f[2])
		}
		if nnz < 0 {
			return nil, fmt.Errorf("mtx: line %d: negative entry count %d", lineNo, nnz)
		}
		break
	}
	if nnz < 0 {
		return nil, fmt.Errorf("mtx: missing size line")
	}
	if rows != cols {
		return nil, fmt.Errorf("mtx: matrix is %dx%d, need square", rows, cols)
	}
	if rows <= 0 {
		return nil, fmt.Errorf("mtx: invalid matrix dimension %d", rows)
	}

	b := sparse.NewBuilder(rows)
	read := 0
	for read < nnz && scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 || len(f) > 3 {
			return nil, fmt.Errorf("mtx: line %d: entry %q needs 2 or 3 fields (row col [value]), got %d", lineNo, line, len(f))
		}
		i, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("mtx: line %d: bad row index %q", lineNo, f[0])
		}
		j, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("mtx: line %d: bad column index %q", lineNo, f[1])
		}
		v := 1.0
		if len(f) == 3 {
			if v, err = strconv.ParseFloat(f[2], 64); err != nil {
				return nil, fmt.Errorf("mtx: line %d: bad value %q", lineNo, f[2])
			}
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("mtx: line %d: entry (%d,%d) outside %dx%d matrix", lineNo, i, j, rows, cols)
		}
		b.Add(i-1, j-1, v)
		if symmetric && i != j {
			b.Add(j-1, i-1, v)
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if read != nnz {
		return nil, fmt.Errorf("mtx: expected %d entries, got %d", nnz, read)
	}
	// Fewer stored entries than rows leave some row empty. Rejecting that
	// before assembly also keeps the row-pointer array, sized by the
	// declared dimension, within the input's own size.
	if b.Len() < rows {
		return nil, fmt.Errorf("mtx: %dx%d matrix has %d stored entries, so some row is empty (structurally singular)", rows, cols, b.Len())
	}
	return b.ToCSR(), nil
}

// ReadFile reads a Matrix Market file from disk.
func ReadFile(path string) (*sparse.CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// Write emits a in `coordinate real general` form.
func Write(w io.Writer, a *sparse.CSR) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "%%MatrixMarket matrix coordinate real general")
	fmt.Fprintf(bw, "%d %d %d\n", a.N, a.N, a.NNZ())
	for r := 0; r < a.N; r++ {
		cols, vals := a.Row(r)
		for i, c := range cols {
			fmt.Fprintf(bw, "%d %d %.17g\n", r+1, c+1, vals[i])
		}
	}
	return bw.Flush()
}

// WriteFile writes a to path in Matrix Market form.
func WriteFile(path string, a *sparse.CSR) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, a); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
