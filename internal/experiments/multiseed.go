package experiments

import "fmt"

// Multi-seed aggregation. Every stochastic experiment in this package has a
// numeric core — a function from one run's Env to a Matrix of float64
// cells —
// and its descriptor renders the single-seed table from it. AggregateSeeds
// fans a batch of seeds over simnet.Trials workers and reduces the
// resulting matrices cell-wise, so any experiment can also report
// mean/p50/p95 across seeds instead of a single draw. Deterministic
// experiments (the paper tables, X1, X4b, X6, X8, X9, X12, X13 and E2, E3)
// have no randomness to average over and stay single-run.

// Matrix is the numeric result of one experiment run under one seed: a
// labelled grid of float64 cells, row-major.
type Matrix struct {
	Rows []string
	Cols []string
	Vals [][]float64
}

// add appends one labelled row.
func (m *Matrix) add(row string, vals ...float64) {
	m.Rows = append(m.Rows, row)
	m.Vals = append(m.Vals, vals)
}

// NewMatrix allocates a zeroed matrix with the given labels.
func NewMatrix(rows, cols []string) Matrix {
	vals := make([][]float64, len(rows))
	for i := range vals {
		vals[i] = make([]float64, len(cols))
	}
	return Matrix{Rows: rows, Cols: cols, Vals: vals}
}

// Agg holds the cell-wise aggregates of one experiment across seeds.
type Agg struct {
	Rows, Cols     []string
	Seeds          int
	Mean, P50, P95 [][]float64
}

// AggregateSeeds runs the experiment core once per seed, each on a copy of
// env with that seed (in parallel on `workers` simnet.Trials workers; 0
// means GOMAXPROCS), and reduces the matrices cell-wise. All matrices must
// share the core's fixed shape.
func AggregateSeeds(env Env, seeds []int64, workers int, run func(Env) Matrix) Agg {
	ms := runTrials(env, seeds, workers, run)
	if len(ms) == 0 {
		return Agg{}
	}
	rows, cols := ms[0].Rows, ms[0].Cols
	a := Agg{Rows: rows, Cols: cols, Seeds: len(ms)}
	zero := func() [][]float64 { return NewMatrix(rows, cols).Vals }
	a.Mean, a.P50, a.P95 = zero(), zero(), zero()
	for r := range rows {
		for c := range cols {
			var s samples
			for _, m := range ms {
				s.add(m.Vals[r][c])
			}
			a.Mean[r][c] = s.mean()
			a.P50[r][c] = s.quantile(0.5)
			a.P95[r][c] = s.quantile(0.95)
		}
	}
	return a
}

// Table renders the aggregate: each cell shows "mean [p50 p95]" over the
// seed batch. colFormats holds one fmt verb per column (e.g. "%.2f",
// "%.0f%%"); a shorter list repeats, so a single format applies to every
// column.
func (a Agg) Table(title, rowHeader string, colFormats ...string) *Table {
	t := &Table{
		Title:   fmt.Sprintf("%s — mean [p50 p95] over %d seeds", title, a.Seeds),
		Headers: append([]string{rowHeader}, a.Cols...),
	}
	for r, name := range a.Rows {
		row := []any{name}
		for c := range a.Cols {
			f := colFormats[c%len(colFormats)]
			row = append(row, fmt.Sprintf(f+" ["+f+" "+f+"]", a.Mean[r][c], a.P50[r][c], a.P95[r][c]))
		}
		t.Add(row...)
	}
	return t
}

// strideSeeds reproduces the historical per-trial seed derivation
// (base + i*stride) used by the single-seed tables, so converting their
// inner loops to simnet.Trials preserves every published number.
func strideSeeds(base, stride int64, n int) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = base + int64(i)*stride
	}
	return seeds
}
