package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// The whole-registry goldens, both written from the reference config: every
// entry's rendered tiny table, one "== <id> ==" block each, and the bench
// file `feudalism bench -scale tiny -seed 7` writes.
const (
	tinyTablesGolden = "testdata/registry_tiny.golden"
	tinyBenchGolden  = "testdata/bench_tiny_golden.json"
)

// multiGolden is one row of the multi column: a matrix experiment's
// three-trial snapshot, pinned in testdata/<id>_bench_golden.json at the
// seed it was recorded at. Worker invariance is about merge ordering, not
// population size, so only X14, the experiment touching the most
// subsystems, pays for full scale.
type multiGolden struct {
	id    string
	seed  int64
	scale string
}

var multiGoldens = []multiGolden{
	{"x14", 4242, "full"},
	{"x15", 1515, "tiny"},
	{"x16", 1616, "tiny"}, // resil.* retry/hedge/breaker counters: every adaptive decision the layer made
	{"x17", 1717, "tiny"}, // storage.tier.* hits, storage.dedup.ratio, storage.gc.reclaimed_bytes: every tiering decision
	{"x18", 1818, "tiny"}, // workload.* request accounting; any drift in the schedule's draws moves it
	{"x19", 1919, "tiny"}, // replic.* counters, the origin-byte-share gauge, the adaptive arms' resil.*
	{"x20", 2020, "tiny"}, // overload.* admission/shed/CoDel counters, net.queue.* uplink gauges, resil.shed.count
}

// cell is one entry run once under one config: its bench entry, the table
// it rendered and the entry's snapshot JSON.
type cell struct {
	entry    obs.BenchExperiment
	table    string
	snapshot []byte
}

// runCell runs d alone under opts on the path RunBench takes.
func runCell(t *testing.T, d descriptor, opts BenchOptions) cell {
	t.Helper()
	e, tab := benchRun(d, opts)
	return newCell(t, e, tab)
}

// newCell is the cell of one entry's run.
func newCell(t *testing.T, e obs.BenchExperiment, tab *Table) cell {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Metrics.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return cell{e, tab.String(), buf.Bytes()}
}

// The golden tests are one harness over entry × config. Each config is a
// column, and each column runs once per test binary, every entry at once
// through benchRuns, the runner RunBench uses, however many of the tests
// below check that run:
//
//   - reference: `bench -scale tiny -seed 7 -workers 1`, one entry at a
//     time. TestRegistryTinyRuns checks each entry's table against its
//     block of registry_tiny.golden and the assembled bench file against
//     bench_tiny_golden.json.
//   - rerun: the same with three trials, which the tiny scale does not
//     run, on four workers, so entries run side by side.
//     TestRegistryTinyDeterministic requires each entry's table and
//     snapshot to equal the reference's: the same seed gives the same
//     bytes at any worker count. TestRunBenchTinyReproducible requires the
//     same of the whole bench file, so the file records one trial.
//   - multi (matrix experiments only, per multiGoldens): three trials on 1
//     and on 4 trial workers, one entry per run. TestBenchGoldens requires the one-worker
//     snapshot to equal <id>_bench_golden.json, and table and snapshot at
//     4 workers to equal those at 1.
//
// After an intentional behaviour change, regenerate every golden with
// `go test ./internal/experiments -run 'TestRegistryTinyRuns$|TestBenchGoldens' -update`.
// An -update under a -run filter that skips an entry rewrites that
// filter's multi goldens but refuses to rewrite the two whole-registry
// files.
var (
	reference = BenchOptions{Seed: 7, Scale: "tiny", Workers: 1}.withDefaults()
	rerun     = BenchOptions{Seed: 7, Scale: "tiny", Trials: 3, Workers: 4}.withDefaults()
)

// columns holds the reference and rerun columns already run: per column,
// every entry's cell by id. The golden tests do not run in parallel, so it
// needs no lock.
var columns = map[string]map[string]cell{}

// column returns the named column, running every entry under opts the
// first time it is asked for.
func column(t *testing.T, name string, opts BenchOptions) map[string]cell {
	t.Helper()
	if c, ok := columns[name]; ok {
		return c
	}
	ds := descriptors()
	entries, tables := benchRuns(ds, opts)
	c := make(map[string]cell, len(ds))
	for i, d := range ds {
		c[d.id] = newCell(t, entries[i], tables[i])
	}
	columns[name] = c
	return c
}

func referenceCell(t *testing.T, d descriptor) cell { return column(t, "reference", reference)[d.id] }
func rerunCell(t *testing.T, d descriptor) cell     { return column(t, "rerun", rerun)[d.id] }

// TestRegistryTinyRuns checks the reference column: every entry renders a
// tiny table of at least a header, a separator and one data row, equal to
// its block of registry_tiny.golden, and the bench file the column
// assembles equals bench_tiny_golden.json.
func TestRegistryTinyRuns(t *testing.T) {
	var wantTables map[string]string
	var wantBench []byte
	if !*updateGolden {
		b, err := os.ReadFile(tinyTablesGolden)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		wantTables = splitTinyGolden(string(b))
		if wantBench, err = os.ReadFile(tinyBenchGolden); err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
	}
	var entries []obs.BenchExperiment
	var tables strings.Builder
	for _, d := range descriptors() {
		t.Run(d.id, func(t *testing.T) {
			ref := referenceCell(t, d)
			lines := strings.Split(strings.TrimRight(ref.table, "\n"), "\n")
			if len(lines) < 3 || strings.TrimSpace(ref.table) == "" {
				t.Fatalf("tiny table too short (%d lines):\n%s", len(lines), ref.table)
			}
			if !*updateGolden && ref.table != wantTables[d.id] {
				t.Errorf("tiny table drifted from %s; if intentional, rerun with -update\ngot:\n%s\nwant:\n%s", tinyTablesGolden, ref.table, wantTables[d.id])
			}
			entries = append(entries, ref.entry)
			fmt.Fprintf(&tables, "== %s ==\n%s", d.id, ref.table)
		})
	}
	if n := len(descriptors()); len(entries) != n {
		// A -run filter skipped entries, or one failed: there is no whole
		// bench file to compare.
		if *updateGolden {
			t.Fatalf("-update rewrites %s and %s from every entry: %d of %d completed", tinyTablesGolden, tinyBenchGolden, len(entries), n)
		}
		return
	}
	refFile := encodeBenchFile(t, benchFile(reference, entries))
	if *updateGolden {
		if err := os.WriteFile(tinyTablesGolden, []byte(tables.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tinyBenchGolden, refFile, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !bytes.Equal(refFile, wantBench) {
		t.Errorf("bench file drifted from %s; if intentional, rerun with -update\ngot:\n%s", tinyBenchGolden, refFile)
	}
}

// TestRegistryTinyDeterministic checks the rerun column entry by entry:
// the same seed renders the same table and records the same snapshot,
// byte for byte — the reproducibility contract every experiment inherits
// from simnet.
func TestRegistryTinyDeterministic(t *testing.T) {
	for _, d := range descriptors() {
		t.Run(d.id, func(t *testing.T) {
			ref, again := referenceCell(t, d), rerunCell(t, d)
			if again.table != ref.table {
				t.Errorf("same seed rendered different tables:\n%s\nvs\n%s", again.table, ref.table)
			}
			if !bytes.Equal(again.snapshot, ref.snapshot) {
				t.Errorf("same seed gave different snapshots:\n%s\nvs\n%s", again.snapshot, ref.snapshot)
			}
		})
	}
}

// TestRunBenchTinyReproducible checks the rerun column's whole bench file:
// it equals the reference's byte for byte, so a tiny bench asked for three
// trials records the one it ran, and it ends with a newline.
func TestRunBenchTinyReproducible(t *testing.T) {
	var refEntries, rerunEntries []obs.BenchExperiment
	for _, d := range descriptors() {
		refEntries = append(refEntries, referenceCell(t, d).entry)
		rerunEntries = append(rerunEntries, rerunCell(t, d).entry)
	}
	refFile := encodeBenchFile(t, benchFile(reference, refEntries))
	if !bytes.Equal(encodeBenchFile(t, benchFile(rerun, rerunEntries)), refFile) {
		t.Error("tiny bench file differs between identical runs")
	}
	if !bytes.HasSuffix(refFile, []byte("\n")) {
		t.Error("bench file must end with a newline")
	}
}

// TestBenchGoldens checks the multi column: every matrix experiment (the
// ids named by their X number, x14–x20) has a multiGoldens row, and each
// row's snapshot is pinned and worker-invariant. Add `/x17` to the -update
// pattern to rewrite just one.
func TestBenchGoldens(t *testing.T) {
	for _, d := range descriptors() {
		if strings.HasPrefix(d.id, "x") && !slices.ContainsFunc(multiGoldens, func(g multiGolden) bool { return g.id == d.id }) {
			t.Errorf("matrix experiment %s has no multiGoldens row", d.id)
		}
	}
	for _, g := range multiGoldens {
		t.Run(g.id, func(t *testing.T) { checkMulti(t, descriptorByID(g.id), g) })
	}
}

// checkMulti runs the multi column of one matrix experiment: three trials
// on 1 and on 4 trial workers, the one-worker snapshot against its golden.
func checkMulti(t *testing.T, d descriptor, g multiGolden) {
	t.Helper()
	opts := BenchOptions{Seed: g.seed, Trials: 3, Workers: 1, Scale: g.scale}
	serial := runCell(t, d, opts)
	opts.Workers = 4
	parallel := runCell(t, d, opts)
	if parallel.table != serial.table {
		t.Errorf("table differs between 1 and 4 trial workers:\n%s\nvs\n%s", serial.table, parallel.table)
	}
	if !bytes.Equal(parallel.snapshot, serial.snapshot) {
		t.Fatal("snapshot differs between 1 and 4 trial workers")
	}
	golden := filepath.Join("testdata", d.id+"_bench_golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, serial.snapshot, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(serial.snapshot, want) {
		t.Fatalf("snapshot drifted from %s; if intentional, rerun with -update\ngot:\n%s", golden, serial.snapshot)
	}
}

// encodeBenchFile is f as `feudalism bench` writes it.
func encodeBenchFile(t *testing.T, f *obs.BenchFile) []byte {
	t.Helper()
	b, err := f.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// splitTinyGolden parses registry_tiny.golden: each entry's table follows
// a "== <id> ==" line.
func splitTinyGolden(s string) map[string]string {
	blocks := map[string]string{}
	var id string
	for _, line := range strings.SplitAfter(s, "\n") {
		if strings.HasPrefix(line, "== ") && strings.HasSuffix(line, " ==\n") {
			id = strings.TrimSuffix(strings.TrimPrefix(line, "== "), " ==\n")
			continue
		}
		blocks[id] += line
	}
	return blocks
}
