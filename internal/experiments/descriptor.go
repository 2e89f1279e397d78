package experiments

import (
	"fmt"
	"strings"
)

// descriptor is one registered experiment: its numeric core and how its
// tables are titled and formatted. Registry generates every entry's Run
// and Multi from one of these, and the tiny tables, bench goldens and CLI
// tables come from the same values; adding an experiment is one more entry
// in descriptors (see EXPERIMENTS.md, "Adding an experiment").
type descriptor struct {
	id, desc string
	// title names the single-seed table at full scale (false) or test
	// scale (true); a title that prints the experiment's sizes is built by
	// titled.
	title func(tiny bool) string
	// multiTitle, when set, replaces title(false) as the aggregated
	// table's title.
	multiTitle string
	rowHeader  string
	// Column formats, one fmt verb per matrix column; a list shorter than
	// the matrix repeats (X14–X16 carry one group of measures per
	// scenario). multi nil means cell; tiny, when set, formats the tiny
	// table, ungrouped.
	cell, multi, tiny []string
	// groups, when non-nil, are the single-seed table's headers: each run
	// of len(cell) matrix columns is joined into one cell under them.
	groups []string
	// matrix is the numeric core: one run's env in, one labelled grid out.
	// An experiment with a core has a multi-seed variant; the
	// deterministic ones leave it nil.
	matrix func(Env) Matrix
	// table, when non-nil, is the single-seed table in place of the
	// core's grid: for tables that are not a grid over the core (a label,
	// verdict or overhead column, a note row, byte counts, no numeric core
	// at all) and for grids rendered at other sizes than the core's.
	table func(Env) *Table
}

// render is m as a table: column c is formatted with
// formats[c%len(formats)]; with groups, each run of len(formats) columns
// shares one cell.
func (m Matrix) render(rowHeader string, groups, formats []string) *Table {
	headers, per := m.Cols, 1
	if groups != nil {
		headers, per = groups, len(formats)
	}
	t := &Table{Headers: append([]string{rowHeader}, headers...)}
	for r, name := range m.Rows {
		row := []any{name}
		for c := 0; c < len(m.Cols); c += per {
			parts := make([]string, per)
			for i := range parts {
				parts[i] = fmt.Sprintf(formats[(c+i)%len(formats)], m.Vals[r][c+i])
			}
			row = append(row, strings.Join(parts, " "))
		}
		t.Add(row...)
	}
	return t
}

// run renders the single-seed table at env's seed and scale.
func (d descriptor) run(env Env) *Table {
	var t *Table
	switch {
	case d.table != nil:
		t = d.table(env)
	case env.Tiny && d.tiny != nil:
		t = d.matrix(env).render(d.rowHeader, nil, d.tiny)
	default:
		t = d.matrix(env).render(d.rowHeader, d.groups, d.cell)
	}
	t.Title = d.title(env.Tiny)
	return t
}

// runMulti aggregates the core over a batch of seeds on `workers`
// parallel trial runners (0 = GOMAXPROCS), each trial on a copy of env
// with its seed.
func (d descriptor) runMulti(env Env, seeds []int64, workers int) *Table {
	title, formats := d.multiTitle, d.multi
	if title == "" {
		title = d.title(false)
	}
	if formats == nil {
		formats = d.cell
	}
	agg := AggregateSeeds(env, seeds, workers, d.matrix)
	return agg.Table(title, d.rowHeader, formats...)
}

// experiment is the registry entry generated from the descriptor.
func (d descriptor) experiment() Experiment {
	e := Experiment{ID: d.id, Desc: d.desc, Run: func(seed int64) fmt.Stringer { return d.run(Env{Seed: seed}) }}
	if d.matrix != nil {
		e.Multi = func(seeds []int64, workers int) fmt.Stringer { return d.runMulti(Env{}, seeds, workers) }
	}
	return e
}

// at picks a row of an experiment's sizes table: [0] is full scale, [1]
// the test-suite scale.
func at[S any](sizes [2]S, tiny bool) S {
	if tiny {
		return sizes[1]
	}
	return sizes[0]
}

// sized adapts a core or table over an experiment's own sizes to the
// descriptor's func(Env) signature.
func sized[S, R any](sizes [2]S, f func(env Env, s S) R) func(Env) R {
	return func(env Env) R { return f(env, at(sizes, env.Tiny)) }
}

// titled is a title that prints the experiment's sizes.
func titled[S any](sizes [2]S, title func(S) string) func(bool) string {
	return func(tiny bool) string { return title(at(sizes, tiny)) }
}

// titles is a title that prints no sizes: one string per scale.
func titles(full, tiny string) func(bool) string {
	return func(t bool) string { return at([2]string{full, tiny}, t) }
}

// labels formats one axis label per value, v*scale through format: the
// shares and fractions the cores sweep print as percentages (scale 100).
func labels[T int | float64](format string, scale T, vals []T) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = fmt.Sprintf(format, v*scale)
	}
	return out
}
