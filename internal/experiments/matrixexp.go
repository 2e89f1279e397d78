package experiments

import (
	"fmt"
	"strings"

	"repro/internal/simnet/fault"
)

// matrixExp describes one matrix experiment — arms × schedule × fault plan
// → meter → Matrix — and everything needed to present it. The registry's
// Run/Multi/Tiny closures, the bench goldens and the CLI tables of X14–X20
// are all generated from these values; adding an experiment of this shape
// is one more entry in matrixExps (see EXPERIMENTS.md, "Adding a matrix
// experiment").
type matrixExp struct {
	id, desc  string
	rowHeader string
	// The three renderings' titles: single seed at full scale, aggregated
	// over a seed batch, and the test-suite scale.
	title, multiTitle, tinyTitle string
	// Column formats, one fmt verb per matrix column; a list shorter than
	// the matrix repeats (X14–X16 carry one group of measures per
	// scenario). tiny nil means cell.
	cell, multi, tiny []string
	// groups, when non-nil, are the single-seed table's headers: each run
	// of len(cell) matrix columns is joined into one cell under them.
	groups []string
	// matrix is the numeric core: one seed in, one labelled grid out.
	matrix func(seed int64, tiny bool) Matrix
	// table, when non-nil, replaces the generated single-seed renderings
	// (X15 shows opt-in wall time per cell, which no Matrix carries).
	table func(seed int64, tiny bool) *Table
}

// render is the single-seed table of m: column c is formatted with
// formats[c%len(formats)]; with groups, each run of len(formats) columns
// shares one cell.
func (m Matrix) render(title, rowHeader string, groups, formats []string) *Table {
	headers, per := m.Cols, 1
	if groups != nil {
		headers, per = groups, len(formats)
	}
	t := &Table{Title: title, Headers: append([]string{rowHeader}, headers...)}
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

// run renders the single-seed table at full scale.
func (d matrixExp) run(seed int64) *Table {
	if d.table != nil {
		return d.table(seed, false)
	}
	return d.matrix(seed, false).render(d.title, d.rowHeader, d.groups, d.cell)
}

// runMulti aggregates the experiment over a batch of seeds on `workers`
// parallel trial runners (0 = GOMAXPROCS).
func (d matrixExp) runMulti(seeds []int64, workers int, tiny bool) *Table {
	agg := AggregateSeeds(seeds, workers, func(seed int64) Matrix { return d.matrix(seed, tiny) })
	return agg.Table(d.multiTitle, d.rowHeader, d.multi...)
}

// runTiny renders the scaled-down run the registry tests drive.
func (d matrixExp) runTiny(seed int64) *Table {
	if d.table != nil {
		return d.table(seed, true)
	}
	formats := d.tiny
	if formats == nil {
		formats = d.cell
	}
	return d.matrix(seed, true).render(d.tinyTitle, d.rowHeader, nil, formats)
}

// experiment is the registry entry generated from the descriptor.
func (d matrixExp) experiment() Experiment {
	return Experiment{
		ID: d.id, Desc: d.desc,
		Run: func(seed int64) fmt.Stringer { return d.run(seed) },
		Multi: func(seeds []int64, workers int) fmt.Stringer {
			return d.runMulti(seeds, workers, false)
		},
		Tiny: func(seed int64) fmt.Stringer { return d.runTiny(seed) },
	}
}

// matrixExpByID returns the descriptor with the given id.
func matrixExpByID(id string) matrixExp {
	for _, d := range matrixExps() {
		if d.id == id {
			return d
		}
	}
	panic("experiments: no matrix experiment " + id)
}

// matrixExps lists X14–X20 in presentation order.
func matrixExps() []matrixExp {
	sp := flashSpecFor(false)
	return []matrixExp{
		{
			id: "x14", desc: "X14: recovery matrix, subsystem × fault scenario",
			rowHeader:  "Subsystem",
			title:      "X14: recovery matrix — post-fault success and time-to-recover per subsystem × scenario",
			multiTitle: "X14: recovery matrix — post-fault success and time-to-recover per subsystem × scenario",
			tinyTitle:  "X14 (tiny): recovery matrix",
			cell:       []string{"%.0f%%", "@%.1fm"},
			multi:      []string{"%.0f%%", "%.1fm"},
			tiny:       []string{"%.1f"},
			groups:     scenarioNames(fault.Scenarios()),
			matrix:     recoveryMatrix,
		},
		{
			id: "x15", desc: "X15: scale sweep, subsystem × population up to 10k nodes",
			rowHeader:  "Subsystem",
			multiTitle: "X15: scale sweep — convergence %, messages/node per subsystem × population",
			multi:      []string{"%.1f%%", "%.0f"},
			matrix:     scaleMatrix,
			table:      ScaleSweep,
		},
		{
			id: "x16", desc: "X16: resilience matrix, subsystem × fault scenario, naive vs adaptive transport",
			rowHeader:  "Subsystem/mode",
			title:      "X16: resilience matrix — mid-fault availability, p95, traffic, recovery per subsystem×mode × scenario",
			multiTitle: "X16: resilience matrix — mid-fault availability, p95, traffic, recovery per subsystem×mode × scenario",
			tinyTitle:  "X16 (tiny): resilience matrix",
			cell:       []string{"%.0f%%", "p95=%.1fs", "%.0fm/n", "@%.1fm"},
			multi:      []string{"%.0f%%", "%.2f", "%.0f", "%.1f"},
			tiny:       []string{"%.1f"},
			groups:     scenarioNames(resilScenarios()),
			matrix:     resilienceMatrix,
		},
		{
			id: "x17", desc: "X17: overlapping-upload dedup and storage tiering, fixed vs content-defined chunking",
			rowHeader:  "Workload/chunking",
			title:      "X17: overlapping uploads — dedup ratio, tier hits, repair and GC volume per workload × chunking",
			multiTitle: "X17: overlapping uploads — dedup ratio, tier hits, repair and GC volume per workload × chunking",
			tinyTitle:  "X17 (tiny): overlapping-upload dedup",
			cell:       []string{"%.2f×", "%.0f%%", "%.0f", "%.0f"},
			multi:      []string{"%.2f", "%.0f", "%.0f", "%.0f"},
			matrix:     dedupMatrix,
		},
		x18Exp("flash"),
		{
			id: "x19", desc: "X19: flash-crowd replay, static-K vs adaptive popularity-driven replication with nearest-replica routing",
			rowHeader: "Arm",
			title: fmt.Sprintf(
				"X19: flash-crowd replay — static K=%d vs adaptive replication (floor %d, cap %d) on %d home-link providers",
				sp.k, sp.k, x19Cfg(sp).Cap, sp.providers),
			multiTitle: "X19: flash-crowd replay — static-K vs adaptive replication with nearest-replica routing",
			tinyTitle:  "X19 (tiny): flash-crowd replay, static-K vs adaptive replication",
			cell:       []string{"%.1f%%", "%.2fs", "%.1f%%", "%.0f", "%.0f"},
			multi:      []string{"%.1f", "%.2f", "%.1f", "%.0f", "%.0f"},
			matrix:     replicationMatrix,
		},
		{
			id: "x20", desc: "X20: flash-crowd saturation, naive vs overload-controlled serving on feudal origin and replic swarm",
			rowHeader: "Arm",
			title: fmt.Sprintf(
				"X20: flash-crowd saturation — naive vs overload-controlled serving, feudal origin and %d-provider replic swarm",
				sp.providers),
			multiTitle: "X20: flash-crowd saturation — naive vs overload-controlled serving",
			tinyTitle:  "X20 (tiny): flash-crowd saturation, naive vs overload-controlled serving",
			cell:       []string{"%.1f%%", "%.1f%%", "%.2fs", "%.2fs", "%.0f", "%.0f"},
			multi:      []string{"%.1f", "%.1f", "%.2f", "%.2f", "%.0f", "%.0f"},
			matrix:     overloadMatrix,
		},
	}
}
