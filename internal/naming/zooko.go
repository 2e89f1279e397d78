package naming

// Zooko's triangle (§3.1): a naming scheme would like names that are
// simultaneously human-meaningful, secure (the binding cannot be forged),
// and decentralized (no single authority controls the namespace).
// Pre-blockchain schemes achieve at most two; "these blockchain-based
// naming schemes manage to resolve Zooko's Triangle by providing,
// simultaneously, human-meaningful, secure, and decentralized names."

// TriangleScore is a scheme's position on Zooko's triangle.
type TriangleScore struct {
	Scheme          string
	HumanMeaningful bool
	Secure          bool
	Decentralized   bool
	// Caveat summarizes the price paid or weakness retained.
	Caveat string
}

// TriangleScores returns the assessment of every naming scheme implemented
// in this repository. The scores are literals; what backs each row:
//   - centralized-registrar: CentralizedRegistrar.Seize/Ban and the
//     resolve path show the missing decentralization, in unit tests only
//     (TestCentralizedRegistrarCensorshipAndSeizure). X1 runs only the
//     registrar's Register path, to time registrations; nothing it
//     prints depends on Resolve, Ban or Seize.
//   - ca-pki: a stolen identity.CA key (CA.Compromise) forges trusted
//     certificates, in unit tests only
//     (identity.TestCACompromiseForgesTrustedCerts).
//   - web-of-trust: X12 (wot-sybil), a shipped run, measures the Sybil
//     amplification behind the missing security.
//   - self-certifying-key: a definitional row; cryptoutil key fingerprints
//     are secure and decentralized but opaque, and no run measures them.
//   - blockchain: this package's Index achieves all three, paying with
//     confirmation latency (X1, naming-throughput), 51% exposure (X2,
//     fifty-one) and ledger growth (X13).
func TriangleScores() []TriangleScore {
	return []TriangleScore{
		{
			Scheme: "centralized-registrar", HumanMeaningful: true, Secure: true, Decentralized: false,
			Caveat: "operator can seize, censor, or lose every name",
		},
		{
			Scheme: "ca-pki", HumanMeaningful: true, Secure: true, Decentralized: false,
			Caveat: "CA compromise forges any binding; revocation depends on CRL freshness",
		},
		{
			Scheme: "web-of-trust", HumanMeaningful: true, Secure: false, Decentralized: true,
			Caveat: "Sybil rings amplify one careless endorsement into full trust",
		},
		{
			Scheme: "self-certifying-key", HumanMeaningful: false, Secure: true, Decentralized: true,
			Caveat: "names are opaque fingerprints; unusable by humans",
		},
		{
			Scheme: "blockchain", HumanMeaningful: true, Secure: true, Decentralized: true,
			Caveat: "pays with confirmation latency, ledger growth, and 51% exposure",
		},
	}
}
