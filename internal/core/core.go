// Package core encodes the paper's conceptual model as code: the two-axis
// taxonomy of Internet service structure (§2 — distribution × control),
// the feature set that makes centralized services attractive (§2.1), and
// the survey registries behind Table 1 (decentralization problems ×
// projects) and Table 2 (storage systems × blockchain usage × incentive
// scheme). Every registry row is cross-linked to the package in this
// repository that implements the row's mechanism, so the tables are
// regenerated from a codebase that actually runs them.
package core

// Distribution is the paper's first axis: "whether the physical resources
// being accessed for some service are located at a single machine … or
// dispersed across many machines all over the planet."
type Distribution int

const (
	// DistCentralized means the resources sit with one machine/site.
	DistCentralized Distribution = iota
	// DistFederated means resources spread over multiple coordinating
	// administrative domains.
	DistFederated
	// DistDistributed means resources disperse across many machines.
	DistDistributed
)

// String names the distribution level.
func (d Distribution) String() string {
	switch d {
	case DistCentralized:
		return "centralized"
	case DistFederated:
		return "federated"
	case DistDistributed:
		return "distributed"
	}
	return "unknown"
}

// Control is the second axis: "whether the authority over the service and
// the machines providing a service is spread across many individuals or
// organizations or held by a few."
type Control int

const (
	// CtrlFeudal concentrates authority in a few operators.
	CtrlFeudal Control = iota
	// CtrlSemiDemocratic spreads authority over many medium-sized
	// operators (the 1990s ISP model the paper calls semi-democratized).
	CtrlSemiDemocratic
	// CtrlDemocratic spreads authority to the users themselves.
	CtrlDemocratic
)

// String names the control level.
func (c Control) String() string {
	switch c {
	case CtrlFeudal:
		return "feudal"
	case CtrlSemiDemocratic:
		return "semi-democratic"
	case CtrlDemocratic:
		return "democratic"
	}
	return "unknown"
}

// Score grades how well a system provides a feature.
type Score int

const (
	// Poor means the feature is essentially absent.
	Poor Score = iota
	// Partial means the feature is provided with significant caveats.
	Partial
	// Good means the feature is a strength of the design.
	Good
)

// String names the score.
func (s Score) String() string {
	switch s {
	case Poor:
		return "poor"
	case Partial:
		return "partial"
	case Good:
		return "good"
	}
	return "unknown"
}

// Features grades a system on the paper's §2.1 axes (why centralized
// systems win users and operators) plus the §3.2 communication-specific
// axes. Communication axes are meaningful only for group-communication
// systems and default to Poor elsewhere.
type Features struct {
	// User-facing (§2.1): Convenience, Homogeneity, Cost.
	Convenience Score
	Homogeneity Score
	Cost        Score
	// Operator-facing (§2.1): Performance, Security, Financing.
	Performance Score
	Security    Score
	Financing   Score
	// Communication-specific (§3.2).
	Connectedness   Score
	AbusePrevention Score
	Privacy         Score
}

// SystemProfile positions one deployment model in the taxonomy.
type SystemProfile struct {
	Name         string
	Distribution Distribution
	Control      Control
	Features     Features
	// Implementation is the package/type in this repository that realizes
	// the model.
	Implementation string
}

// Profiles returns the taxonomy positions of the deployment models this
// repository implements, spanning the §2 quadrants the paper describes:
// today's Internet is "distributed and feudal"; the goal is "distributed
// and democratic".
func Profiles() []SystemProfile {
	return []SystemProfile{
		{
			Name:         "centralized-platform",
			Distribution: DistCentralized,
			Control:      CtrlFeudal,
			Features: Features{
				Convenience: Good, Homogeneity: Good, Cost: Good,
				Performance: Good, Security: Good, Financing: Good,
				Connectedness: Good, AbusePrevention: Good, Privacy: Poor,
			},
			Implementation: "groupcomm.ReplServer, naming.CentralizedRegistrar",
		},
		{
			Name:         "hyperscale-cloud",
			Distribution: DistDistributed,
			Control:      CtrlFeudal,
			Features: Features{
				Convenience: Good, Homogeneity: Good, Cost: Good,
				Performance: Good, Security: Good, Financing: Good,
				Connectedness: Good, AbusePrevention: Good, Privacy: Poor,
			},
			Implementation: "feasibility.CloudParams (capacity model)",
		},
		{
			Name:         "federated",
			Distribution: DistFederated,
			Control:      CtrlSemiDemocratic,
			Features: Features{
				Convenience: Partial, Homogeneity: Partial, Cost: Good,
				Performance: Partial, Security: Partial, Financing: Partial,
				Connectedness: Partial, AbusePrevention: Partial, Privacy: Partial,
			},
			Implementation: "groupcomm.FedInstance, groupcomm.ReplServer",
		},
		{
			Name:         "peer-to-peer",
			Distribution: DistDistributed,
			Control:      CtrlDemocratic,
			Features: Features{
				Convenience: Poor, Homogeneity: Poor, Cost: Good,
				Performance: Poor, Security: Partial, Financing: Poor,
				Connectedness: Poor, AbusePrevention: Poor, Privacy: Good,
			},
			Implementation: "groupcomm.SocialPeer, storage.Provider, webapp.Peer, dht.Peer, chain.Miner",
		},
	}
}
