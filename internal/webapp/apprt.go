package webapp

import (
	"repro/internal/cryptoutil"
	"repro/internal/dht"
	"repro/internal/simnet"
)

// AppRuntime is the freedom.js model of §3.4: "a web application,
// including its back-end logic, runs entirely in a web browser. Three
// types of APIs, the identity, storage, and transport, are provided to
// application developers." Here the browser is a simulated node, and
// two of the three APIs are backed by this repository's substrates:
//
//   - Storage: the Kademlia DHT ("a reliable DHT can be selected to store
//     data globally");
//   - Transport: direct peer-to-peer datagrams between app instances
//     (standing in for WebRTC data channels).
//
// Identity is the naming layer's job: an app resolves a human name to a
// key fingerprint with a naming.Index replica of its own, as the p2pchat
// example does.
type AppRuntime struct {
	node  *simnet.Node
	dht   *dht.Peer
	onMsg []func(from simnet.NodeID, payload []byte)
	// MessagesReceived counts transport deliveries.
	MessagesReceived int
}

const msgAppTransport = "webapp.app.transport"

type appDatagram struct {
	Payload []byte
}

// NewAppRuntime wires the storage and transport APIs onto a node.
func NewAppRuntime(node *simnet.Node, d *dht.Peer) *AppRuntime {
	rt := &AppRuntime{node: node, dht: d}
	node.Handle(msgAppTransport, func(msg simnet.Message) {
		dg := msg.Payload.(appDatagram)
		rt.MessagesReceived++
		for _, f := range rt.onMsg {
			f(msg.From, dg.Payload)
		}
	})
	return rt
}

// Node returns the runtime's simulated browser node.
func (rt *AppRuntime) Node() *simnet.Node { return rt.node }

// DHT returns the runtime's DHT participant (for bootstrapping).
func (rt *AppRuntime) DHT() *dht.Peer { return rt.dht }

// StorePut is the storage API's write: value goes into the global DHT
// under an application key. done (optional) receives the replica count.
func (rt *AppRuntime) StorePut(key string, value []byte, done func(stored int)) {
	rt.dht.Put(appStorageKey(key), value, done)
}

// StoreGet is the storage API's read.
func (rt *AppRuntime) StoreGet(key string, done func(value []byte, ok bool)) {
	rt.dht.Get(appStorageKey(key), done)
}

func appStorageKey(key string) cryptoutil.Hash {
	return cryptoutil.SumHashes([]byte("freedomjs-app-store"), []byte(key))
}

// SendTo is the transport API: a direct datagram to another app instance
// (its node ID typically comes from a DHT rendezvous or an identity
// lookup).
func (rt *AppRuntime) SendTo(peer simnet.NodeID, payload []byte) bool {
	return rt.node.Send(peer, msgAppTransport, appDatagram{Payload: payload}, len(payload)+24)
}

// OnMessage registers a transport delivery handler.
func (rt *AppRuntime) OnMessage(f func(from simnet.NodeID, payload []byte)) {
	rt.onMsg = append(rt.onMsg, f)
}

// Rendezvous publishes this instance's node address under a shared app
// key so other instances can find it — the discovery step freedom.js
// leaves to a DHT. done is optional.
func (rt *AppRuntime) Rendezvous(app string, done func()) {
	var addr [8]byte
	id := uint64(rt.node.ID())
	for i := 0; i < 8; i++ {
		addr[i] = byte(id >> (8 * i))
	}
	rt.dht.Put(rendezvousKey(app, rt.node.ID()), addr[:], func(int) {
		// Also maintain a well-known "latest instance" pointer.
		rt.dht.Put(rendezvousKey(app, -1), addr[:], func(int) {
			if done != nil {
				done()
			}
		})
	})
}

// FindInstance looks up the most recently rendezvoused instance of app.
func (rt *AppRuntime) FindInstance(app string, done func(peer simnet.NodeID, ok bool)) {
	rt.dht.Get(rendezvousKey(app, -1), func(value []byte, ok bool) {
		if !ok || len(value) != 8 {
			done(0, false)
			return
		}
		var id uint64
		for i := 0; i < 8; i++ {
			id |= uint64(value[i]) << (8 * i)
		}
		done(simnet.NodeID(id), true)
	})
}

func rendezvousKey(app string, node simnet.NodeID) cryptoutil.Hash {
	var b [8]byte
	id := uint64(node)
	for i := 0; i < 8; i++ {
		b[i] = byte(id >> (8 * i))
	}
	return cryptoutil.SumHashes([]byte("freedomjs-rendezvous"), []byte(app), b[:])
}
