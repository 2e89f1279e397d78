package storage

import (
	"sort"
	"time"

	"repro/internal/chain"
	"repro/internal/cryptoutil"
	"repro/internal/obs"
)

// Custodian automates the owner side of the storage economy: on a fixed
// epoch it audits every managed object, drops holders that fail their
// proof, repairs redundancy from the provider pool, and (when a contract
// and wallet are attached) emits per-epoch payments for providers that
// proved possession. It packages the maintenance loop the §3.3 systems
// run implicitly — "repair strategies to prevent data loss" plus
// pay-per-proof settlement — as a reusable component.
type Custodian struct {
	client *Client
	pool   []ProviderRef
	epoch  time.Duration
	// deadline bounds each audit challenge (timing-based attack detection).
	deadline time.Duration
	objects  []*managedObject
	// wallet/submit wire settlement to a chain when non-nil.
	wallet *chain.Wallet
	submit func(*chain.Tx)
	// Stats.
	Epochs, Repairs, PaymentsSent, AuditFailures int
	running                                      bool

	// Observability: audit epochs run and challenges failed, network-wide.
	obsEpochs   *obs.Counter
	obsFailures *obs.Counter
}

type managedObject struct {
	m  *Manifest
	pl *Placement
	// contracts maps provider node → contract for payment routing.
	contracts map[ProviderRef]*Contract
}

// NewCustodian creates a maintenance daemon using the given client. epoch
// is the audit/repair period; deadline bounds individual challenges.
func NewCustodian(client *Client, pool []ProviderRef, epoch, deadline time.Duration) *Custodian {
	node := client.Node()
	return &Custodian{
		client: client, pool: pool, epoch: epoch, deadline: deadline,
		obsEpochs:   node.Obs().Counter("storage.audit.epochs"),
		obsFailures: node.Obs().Counter("storage.audit.failures"),
	}
}

// AttachWallet enables on-chain settlement: payments are built from wallet
// and handed to submit (typically Miner.SubmitTx).
func (cu *Custodian) AttachWallet(w *chain.Wallet, submit func(*chain.Tx)) {
	cu.wallet = w
	cu.submit = submit
}

// Manage adds an object to the maintenance set. contracts may be nil (no
// payments) or map specific holders to their contracts.
func (cu *Custodian) Manage(m *Manifest, pl *Placement, contracts map[ProviderRef]*Contract) {
	cu.objects = append(cu.objects, &managedObject{m: m, pl: pl, contracts: contracts})
}

// NumObjects returns how many objects are under management.
func (cu *Custodian) NumObjects() int { return len(cu.objects) }

// Start begins the epoch loop; it reschedules itself until Stop.
func (cu *Custodian) Start() {
	if cu.running {
		return
	}
	cu.running = true
	cu.scheduleEpoch()
}

// Stop halts the loop after the current epoch.
func (cu *Custodian) Stop() { cu.running = false }

func (cu *Custodian) scheduleEpoch() {
	// Node-local timer: audit epochs drift with the custodian's clock skew.
	cu.client.Node().After(cu.epoch, func() {
		if !cu.running {
			return
		}
		cu.runEpoch()
		cu.scheduleEpoch()
	})
}

// runEpoch audits, repairs, and settles every managed object once.
func (cu *Custodian) runEpoch() {
	cu.Epochs++
	cu.obsEpochs.Inc()
	for _, o := range cu.objects {
		o := o
		cu.client.Audit(o.m, o.pl, cu.deadline, func(r *AuditReport) {
			// Track which providers failed any challenge this epoch.
			failed := map[ProviderRef]bool{}
			for _, res := range r.Results {
				if !res.OK {
					failed[res.Holder] = true
					o.pl.Remove(o.m.Chunks[res.ChunkIndex], res.Holder)
					cu.AuditFailures++
					cu.obsFailures.Inc()
				}
			}
			// Pay every contracted holder that proved possession, in node
			// order: each payment draws the wallet's next nonce, so the
			// order decides every transaction's content.
			if cu.wallet != nil && cu.submit != nil {
				paid := make([]ProviderRef, 0, len(o.contracts))
				for ref := range o.contracts { //determinism:ok sorted below
					if !failed[ref] {
						paid = append(paid, ref)
					}
				}
				sort.Slice(paid, func(i, j int) bool { return paid[i].Node < paid[j].Node })
				for _, ref := range paid {
					tx := o.contracts[ref].PaymentTx(cu.wallet.Key(), cu.wallet.NextNonce())
					cu.submit(tx)
					cu.PaymentsSent++
				}
			}
			// Restore redundancy.
			cu.client.Repair(o.m, o.pl, cu.pool, func(restored int, err error) {
				cu.Repairs += restored
			})
		})
	}
}

// Healthy reports whether every managed object currently meets its target
// redundancy according to the placement records.
func (cu *Custodian) Healthy() bool {
	for _, o := range cu.objects {
		want := o.m.Replicas
		if o.m.Mode == ModeErasure {
			want = 1
		}
		if o.pl.MinRedundancy(o.m) < want {
			return false
		}
	}
	return true
}

// Object returns the manifest and placement of managed object i (for
// downloads by the owner).
func (cu *Custodian) Object(i int) (*Manifest, *Placement) {
	o := cu.objects[i]
	return o.m, o.pl
}

// ManagedIDs lists the file IDs under management.
func (cu *Custodian) ManagedIDs() []cryptoutil.Hash {
	out := make([]cryptoutil.Hash, len(cu.objects))
	for i, o := range cu.objects {
		out[i] = o.m.FileID
	}
	return out
}
