package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// quantile returns the q-quantile of v by linear interpolation between
// order statistics (0 for empty input). v is not modified.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// subWindows is how many equal consecutive windows a measured run is split
// into. Each latency and throughput metric is the median over windows of
// the window's own statistic, so one burst of interference from elsewhere
// on the host moves one window rather than the reported figure.
const subWindows = 10

// windowStats is one measurement window's latency statistics and rate.
type windowStats struct{ p50, p99, rate float64 }

// setWindowMedians stores the median over windows of the p50 latency and
// the rate as p50_ms and ops_per_s, and prints them with the p99 and the
// sample count. The p99 is not gated: on a shared two-vCPU host its
// run-to-run spread exceeds any useful bound (see README.md); the traced
// run reports it as bench.p99_ms.
func setWindowMedians(out io.Writer, m map[string]float64, ws []windowStats, samples int) {
	var p50, p99, rate []float64
	for _, w := range ws {
		p50 = append(p50, w.p50)
		p99 = append(p99, w.p99)
		rate = append(rate, w.rate)
	}
	m["p50_ms"] = median(p50)
	m["ops_per_s"] = median(rate)
	fmt.Fprintf(out, "# %d samples in %d windows; medians over windows: p50 %.4g ms, p99 %.4g ms, rate %.4g/s\n",
		samples, len(ws), m["p50_ms"], median(p99), m["ops_per_s"])
	fmt.Fprintf(out, "# window p50s, ms: %.4g\n", p50)
}
