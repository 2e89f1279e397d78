package core

// Table 1 and Table 2 registries. The survey content is the paper's; the
// Implementation column is ours, tying each surveyed mechanism class to
// the package that realizes it in this repository.

// Table1Row is one row of the paper's Table 1: a decentralization problem
// and the recent projects tackling it.
type Table1Row struct {
	Problem  string
	Projects []string
	// Implementation names the model in this repository that reproduces
	// the problem's mechanism class.
	Implementation string
}

// Table1 returns the paper's Table 1 rows.
func Table1() []Table1Row {
	return []Table1Row{
		{
			Problem:        "Naming",
			Projects:       []string{"Namecoin", "Emercoin", "Blockstack"},
			Implementation: "naming.Index over chain.Chain (preorder/register virtualchain)",
		},
		{
			Problem: "Group Communication",
			Projects: []string{
				"Matrix", "Riot", "Ring", "Nextcloud", "GNU social",
				"Mastodon", "Friendica", "Identi.ca",
			},
			Implementation: "groupcomm.{FedInstance,ReplServer,SocialPeer} + double ratchet",
		},
		{
			Problem: "Data storage",
			Projects: []string{
				"IPFS", "Blockstack", "Maidsafe", "Secure-scuttlebutt",
				"Nextcloud", "Sia", "Storj", "Swarm", "Filecoin",
			},
			Implementation: "storage.{Provider,Client,Contract,BitswapNode} + erasure coding + proofs",
		},
		{
			Problem:        "Web applications",
			Projects:       []string{"Beaker", "ZeroNet", "Freedom.js"},
			Implementation: "webapp.{Peer,Tracker} signed site bundles over dht.Peer",
		},
	}
}

// IncentiveID selects which implemented incentive mechanism a Table 2 row
// is backed by; internal/experiments executes each against live providers.
type IncentiveID int

const (
	// IncentiveBitswap is pairwise reciprocity accounting (IPFS).
	IncentiveBitswap IncentiveID = iota
	// IncentiveProofOfStorage is the Merkle challenge-response audit
	// (Sia, Swarm's SWEAR).
	IncentiveProofOfStorage
	// IncentiveProofOfRetrievability is the precomputed-sentinel audit
	// (Storj; closest implemented analogue for MaidSafe's
	// proof-of-resource).
	IncentiveProofOfRetrievability
	// IncentiveProofOfReplication is sealed-replica auditing (Filecoin).
	IncentiveProofOfReplication
	// IncentiveNone marks rows using the chain only for name binding
	// (Blockstack).
	IncentiveNone
)

// String names the incentive mechanism.
func (i IncentiveID) String() string {
	switch i {
	case IncentiveBitswap:
		return "bitswap-ledgers"
	case IncentiveProofOfStorage:
		return "proof-of-storage"
	case IncentiveProofOfRetrievability:
		return "proof-of-retrievability"
	case IncentiveProofOfReplication:
		return "proof-of-replication"
	case IncentiveNone:
		return "none"
	}
	return "unknown"
}

// Table2Row is one row of the paper's Table 2: a surveyed decentralized
// storage system, how it uses blockchains, and its incentive scheme.
type Table2Row struct {
	System          string
	BlockchainUsage string
	IncentiveScheme string
	// Incentive is the implemented mechanism this row is demonstrated
	// with; Implementation names the concrete code.
	Incentive      IncentiveID
	Implementation string
}

// Table2 returns the paper's Table 2 rows, each mapped to the implemented
// mechanism that demonstrates it.
func Table2() []Table2Row {
	return []Table2Row{
		{
			System:          "IPFS",
			BlockchainUsage: "None",
			IncentiveScheme: "Bitswap Ledgers",
			Incentive:       IncentiveBitswap,
			Implementation:  "storage.BitswapNode (debt-ratio reciprocity)",
		},
		{
			System:          "MaidSafe",
			BlockchainUsage: "None",
			IncentiveScheme: "Proof-of-resource / Distributed transaction",
			Incentive:       IncentiveProofOfRetrievability,
			Implementation:  "storage.RetAudit (sentinel audits; closest implemented analogue)",
		},
		{
			System:          "Sia",
			BlockchainUsage: "Blockchain-based contract",
			IncentiveScheme: "Proof-of-storage",
			Incentive:       IncentiveProofOfStorage,
			Implementation:  "storage.Contract on chain.Chain + storage.Client.Audit",
		},
		{
			System:          "Storj",
			BlockchainUsage: "Facilitate payments (storjcoin)",
			IncentiveScheme: "Proof-of-retrievability",
			Incentive:       IncentiveProofOfRetrievability,
			Implementation:  "storage.Contract.PaymentTx + storage.MakeSentinels/RetAudit",
		},
		{
			System:          "Swarm",
			BlockchainUsage: "Ethereum blockchain for domain name resolution, payments, and content availability insurance",
			IncentiveScheme: "Proof-of-storage: SWEAR",
			Incentive:       IncentiveProofOfStorage,
			Implementation:  "naming.Index (name resolution) + storage.Contract + Client.Audit",
		},
		{
			System:          "Filecoin",
			BlockchainUsage: "Facilitate payments (filecoin)",
			IncentiveScheme: "Proof-of-replication / Proof-of-spacetime / Proof-of-work",
			Incentive:       IncentiveProofOfReplication,
			Implementation:  "storage.Seal/PutSealed/RepAudit + chain proof-of-work",
		},
		{
			System:          "Blockstack",
			BlockchainUsage: "Bind domain name, public key and zone file hash",
			IncentiveScheme: "N/A",
			Incentive:       IncentiveNone,
			Implementation:  "naming.Client ops anchoring zone-file hashes on chain.Chain",
		},
	}
}
