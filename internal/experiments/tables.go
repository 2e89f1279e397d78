package experiments

import (
	"strings"

	"repro/internal/core"
	"repro/internal/feasibility"
	"repro/internal/naming"
)

// Table1 regenerates the paper's Table 1 (decentralization problems ×
// recent projects) from the core registry, adding the column mapping each
// row to this repository's implementation (experiment E1).
func Table1() *Table {
	t := &Table{
		Title:   "Table 1: Decentralization problems and examples of recent projects",
		Headers: []string{"Decentralization Problem", "Recent Projects", "Implemented By"},
	}
	for _, r := range core.Table1() {
		t.Add(r.Problem, strings.Join(r.Projects, ", "), r.Implementation)
	}
	return t
}

// Table2 regenerates the paper's Table 2 (surveyed storage systems) from
// the core registry (experiment E2). The incentive mechanism of every row
// is executed against live providers by incentiveDemos.
func Table2() *Table {
	t := &Table{
		Title:   "Table 2: Comparison of Surveyed Storage Systems",
		Headers: []string{"System", "Blockchain Usage", "Incentive Scheme", "Implemented By"},
	}
	for _, r := range core.Table2() {
		t.Add(r.System, r.BlockchainUsage, r.IncentiveScheme, r.Implementation)
	}
	return t
}

// Table3 regenerates the paper's Table 3 (estimated capacity of global
// cloud infrastructure versus unused user-device resources) from the
// feasibility model with the paper's constants (experiment E3).
func Table3() *Table {
	t := &Table{
		Title:   "Table 3: Estimated capacity of global cloud infrastructure and unused user resources",
		Headers: []string{"Resource", "Cloud Infrastructure", "User Devices", "Sufficient"},
	}
	for _, r := range feasibility.Table3(feasibility.PaperCloud(), feasibility.PaperDevices()) {
		t.Add(r.Resource, r.Cloud, r.Devices, r.Sufficient)
	}
	return t
}

// ZookoTable renders the Zooko-triangle scores of every implemented naming
// scheme (§3.1).
func ZookoTable() *Table {
	t := &Table{
		Title:   "Zooko's triangle: which corners each naming scheme achieves",
		Headers: []string{"Scheme", "Human-Meaningful", "Secure", "Decentralized", "Caveat"},
	}
	for _, s := range naming.TriangleScores() {
		t.Add(s.Scheme, s.HumanMeaningful, s.Secure, s.Decentralized, s.Caveat)
	}
	return t
}
