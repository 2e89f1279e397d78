package obs

import "sync"

// Collector gathers every Registry created while it is installed — one per
// simnet.Network, including the networks parallel trial workers build —
// so a harness can export one merged snapshot per experiment.
//
// Attach order is whatever the scheduler produced, but MergeRegistries
// sorts by registry label (simnet labels registries "seed:<seed>"), so the
// merged snapshot is identical at any worker count.
type Collector struct {
	mu   sync.Mutex
	regs []*Registry
}

// NewCollector creates an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Attach adds a registry to the collector. Safe for concurrent use.
func (c *Collector) Attach(r *Registry) {
	c.mu.Lock()
	c.regs = append(c.regs, r)
	c.mu.Unlock()
}

// Merged returns the deterministic merge of every attached registry.
func (c *Collector) Merged() *Snapshot {
	c.mu.Lock()
	regs := append([]*Registry(nil), c.regs...)
	c.mu.Unlock()
	return MergeRegistries(regs)
}

// current is the process-wide collector hook. simnet.New attaches each new
// network's registry to it when one is installed; the bench harness
// installs a fresh collector around each experiment.
var (
	currentMu sync.Mutex
	current   *Collector
)

// SetCollector installs c as the process-wide collector and returns a
// function restoring the previous one. Passing nil uninstalls.
func SetCollector(c *Collector) (restore func()) {
	currentMu.Lock()
	prev := current
	current = c
	currentMu.Unlock()
	return func() {
		currentMu.Lock()
		current = prev
		currentMu.Unlock()
	}
}

// AttachCurrent adds r to the installed collector, if any. Called by
// simnet.New for every network; a no-op outside bench runs.
func AttachCurrent(r *Registry) {
	currentMu.Lock()
	c := current
	currentMu.Unlock()
	if c != nil {
		c.Attach(r)
	}
}
