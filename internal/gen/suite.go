package gen

import "fmt"

// Scale selects the size of the generated analogs. Tests and `go test
// -bench` use Small; cmd/figures defaults to Medium; Large approaches the
// largest problems this environment can factor in reasonable time (the
// paper's originals, at n up to 4.2M with billions of LU nonzeros, need a
// supercomputer even to hold).
type Scale int

const (
	Small Scale = iota
	Medium
	Large
)

// ParseScale maps a flag string to a Scale; unknown names are errors.
func ParseScale(s string) (Scale, error) {
	for _, sc := range []Scale{Small, Medium, Large} {
		if s == sc.String() {
			return sc, nil
		}
	}
	return 0, fmt.Errorf("unknown scale %q (want small, medium, large)", s)
}

func (s Scale) String() string {
	switch s {
	case Small:
		return "small"
	case Large:
		return "large"
	default:
		return "medium"
	}
}

// Named generates a single analog by name at the given scale. Valid names
// are s2d9pt, nlpkkt, ldoor, dielfilter, gaas, and s1mat; it panics on
// anything else so misconfigured experiments fail immediately.
func Named(name string, scale Scale) Matrix {
	switch name {
	case "s2d9pt":
		nx := map[Scale]int{Small: 32, Medium: 128, Large: 384}[scale]
		return Matrix{
			Name: "s2d9pt", PaperName: "s2D9pt2048", Description: "Poisson",
			A: S2D9pt(nx, nx, 101),
		}
	case "nlpkkt":
		nx := map[Scale]int{Small: 7, Medium: 14, Large: 24}[scale]
		return Matrix{
			Name: "nlpkkt", PaperName: "nlpkkt80", Description: "Optimization",
			A: NLPKKTLike(nx, 102),
		}
	case "ldoor":
		nx := map[Scale]int{Small: 10, Medium: 24, Large: 48}[scale]
		return Matrix{
			Name: "ldoor", PaperName: "ldoor", Description: "Structural",
			A: LdoorLike(nx, nx/2+1, 3, 103),
		}
	case "dielfilter":
		nx := map[Scale]int{Small: 8, Medium: 14, Large: 22}[scale]
		return Matrix{
			Name: "dielfilter", PaperName: "dielFilterV3real", Description: "Wave",
			A: DielFilterLike(nx, 104),
		}
	case "gaas":
		n := map[Scale]int{Small: 300, Medium: 1200, Large: 2500}[scale]
		return Matrix{
			Name: "gaas", PaperName: "Ga19As19H42", Description: "Chemistry",
			A: GaAsLike(n, 4, 105),
		}
	case "s1mat":
		nx := map[Scale]int{Small: 8, Medium: 24, Large: 48}[scale]
		return Matrix{
			Name: "s1mat", PaperName: "s1_mat_0_253872", Description: "Fusion",
			A: S1MatLike(nx, 8, 106),
		}
	}
	panic("gen: unknown matrix name " + name)
}

// SuiteNames lists the analogs in the paper's Table 1 order.
func SuiteNames() []string {
	return []string{"nlpkkt", "gaas", "s1mat", "s2d9pt", "ldoor", "dielfilter"}
}

// Suite generates the full Table 1 analog set at the given scale.
func Suite(scale Scale) []Matrix {
	names := SuiteNames()
	ms := make([]Matrix, len(names))
	for i, name := range names {
		ms[i] = Named(name, scale)
	}
	return ms
}
