package naming

import (
	"time"

	"repro/internal/chain"
	"repro/internal/simnet"
)

// CentralizedRegistrar is the baseline the paper's feudal Internet uses: a
// single authoritative server that registers and resolves names instantly.
// It is fast and convenient — and a single point of failure and control.
// The registrar can censor (refuse) names and seize (rewrite) them, which
// no client can detect or prevent. Experiment X1 runs only its Register
// path, timing registrations against the blockchain scheme's confirmation
// latency; Resolve, Ban and Seize back the zooko table's
// centralized-registrar row through unit tests.
type CentralizedRegistrar struct {
	rpc    *simnet.RPCNode
	names  map[string]*Record
	banned map[string]bool
}

// Registrar RPC methods.
const (
	MethodRegister = "registrar.register"
	MethodResolve  = "registrar.resolve"
)

type registerReq struct {
	Name  string
	Owner chain.Address
	Value []byte
}

type resolveResp struct {
	Rec   *Record
	Found bool
}

// NewCentralizedRegistrar starts a registrar service on the given node.
func NewCentralizedRegistrar(node *simnet.Node) *CentralizedRegistrar {
	r := &CentralizedRegistrar{
		rpc:    simnet.NewRPCNode(node),
		names:  map[string]*Record{},
		banned: map[string]bool{},
	}
	r.rpc.Serve(MethodRegister, r.onRegister)
	r.rpc.Serve(MethodResolve, r.onResolve)
	return r
}

// Node returns the registrar's simnet node.
func (r *CentralizedRegistrar) Node() *simnet.Node { return r.rpc.Node() }

// Ban censors a name: future registrations and resolutions fail. This is
// the unilateral control the paper's §2 describes ("access to the platform
// can be unequivocally revoked").
//
//reach:the zooko centralized-registrar row cites it
func (r *CentralizedRegistrar) Ban(name string) {
	r.banned[name] = true
	delete(r.names, name)
}

// Seize rewrites a name's owner — the registrar needs no one's consent.
//
//reach:the zooko centralized-registrar row cites it
func (r *CentralizedRegistrar) Seize(name string, newOwner chain.Address) {
	if rec, ok := r.names[name]; ok {
		rec.Owner = newOwner
	}
}

func (r *CentralizedRegistrar) onRegister(from simnet.NodeID, req any) (any, int) {
	rr, ok := req.(registerReq)
	if !ok || !ValidName(rr.Name) || r.banned[rr.Name] {
		return false, 8
	}
	if _, taken := r.names[rr.Name]; taken {
		return false, 8
	}
	r.names[rr.Name] = &Record{Name: rr.Name, Owner: rr.Owner, Value: rr.Value}
	return true, 8
}

// onResolve answers a client's Resolve.
//
//reach:the zooko centralized-registrar row cites it
func (r *CentralizedRegistrar) onResolve(from simnet.NodeID, req any) (any, int) {
	name, ok := req.(string)
	if !ok || r.banned[name] {
		return resolveResp{}, 8
	}
	rec, found := r.names[name]
	return resolveResp{Rec: rec, Found: found}, 8 + 64
}

// RegistrarClient calls a CentralizedRegistrar over the simulated network.
type RegistrarClient struct {
	rpc     *simnet.RPCNode
	server  simnet.NodeID
	timeout time.Duration
}

// NewRegistrarClient creates a client on node targeting the registrar.
func NewRegistrarClient(node *simnet.Node, server simnet.NodeID, timeout time.Duration) *RegistrarClient {
	return &RegistrarClient{rpc: simnet.NewRPCNode(node), server: server, timeout: timeout}
}

// Register asks the registrar to bind name→owner. done receives success.
func (c *RegistrarClient) Register(name string, owner chain.Address, value []byte, done func(ok bool)) {
	req := registerReq{Name: name, Owner: owner, Value: value}
	c.rpc.Call(c.server, MethodRegister, req, 64+len(name)+len(value), c.timeout, func(resp any, err error) {
		ok, _ := resp.(bool)
		done(err == nil && ok)
	})
}

// Resolve looks a name up. done receives the record or found=false (also
// on timeout — an unreachable registrar resolves nothing, which is the
// availability experiment's point).
//
//reach:the zooko centralized-registrar row cites it
func (c *RegistrarClient) Resolve(name string, done func(rec *Record, found bool)) {
	c.rpc.Call(c.server, MethodResolve, name, 32+len(name), c.timeout, func(resp any, err error) {
		if err != nil {
			done(nil, false)
			return
		}
		rr, ok := resp.(resolveResp)
		if !ok || !rr.Found {
			done(nil, false)
			return
		}
		done(rr.Rec, true)
	})
}
