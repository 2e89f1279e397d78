package experiments

import (
	"fmt"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/dht"
	"repro/internal/gossip"
	"repro/internal/groupcomm"
	"repro/internal/resil"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/webapp"
)

// The world builders: every experiment that stands up a DHT population, a
// storage fleet, a hostless-web swarm or a group-communication federation
// or friend mesh builds it here (newMinerNet in x1_naming.go is the
// chain's). They fix only construction order — which decides node IDs and
// with them every per-node random stream — while sizes, configs, key names
// and settle times stay with the caller.

// noder is anything that sits on one simnet node.
type noder interface{ Node() *simnet.Node }

// nodeIDs returns the node ID of every member, in order.
func nodeIDs[T noder](members []T) []simnet.NodeID {
	ids := make([]simnet.NodeID, len(members))
	for i, m := range members {
		ids[i] = m.Node().ID()
	}
	return ids
}

// othersOf returns a fresh copy of ids without entry i: member i's peer
// list in a full mesh.
func othersOf(ids []simnet.NodeID, i int) []simnet.NodeID {
	peers := make([]simnet.NodeID, 0, len(ids)-1)
	peers = append(peers, ids[:i]...)
	return append(peers, ids[i+1:]...)
}

// growDHT adds n DHT peers, peer i configured by cfg(i), and schedules
// peers 1..n-1 to join through peer 0 at i·stagger from now, so concurrent
// bootstrap traffic stays bounded. The caller runs the network until the
// joins have settled.
func growDHT(nw *simnet.Network, n int, stagger time.Duration, cfg func(i int) dht.Config) []*dht.Peer {
	peers := make([]*dht.Peer, n)
	for i := range peers {
		peers[i] = dht.NewPeer(nw.AddNode(), dht.Key{}, cfg(i))
	}
	for i, p := range peers[1:] {
		nw.After(time.Duration(i+1)*stagger, func() { p.Bootstrap(peers[0].Contact(), nil) })
	}
	return peers
}

// sameDHT configures every peer of growDHT alike.
func sameDHT(cfg dht.Config) func(int) dht.Config {
	return func(int) dht.Config { return cfg }
}

// putKeys publishes n one-byte values from p under the hashes of
// format%i and returns the keys.
func putKeys(p *dht.Peer, n int, format string) []dht.Key {
	keys := make([]dht.Key, n)
	for i := range keys {
		keys[i] = cryptoutil.SumHash([]byte(fmt.Sprintf(format, i)))
		p.Put(keys[i], []byte{byte(i)}, nil)
	}
	return keys
}

// fedHome adds n federated-home instances named inst0..inst<n-1>, instance
// i moderating with policy(i) (no policy when policy is nil), and peers
// every instance with every other.
func fedHome(nw *simnet.Network, n int, policy func(i int) *groupcomm.ModerationPolicy) []*groupcomm.FedInstance {
	insts := make([]*groupcomm.FedInstance, n)
	for i := range insts {
		var p *groupcomm.ModerationPolicy
		if policy != nil {
			p = policy(i)
		}
		insts[i] = groupcomm.NewFedInstance(nw.AddNode(), fmt.Sprintf("inst%d", i), p)
	}
	for i, a := range insts {
		for j, b := range insts {
			if i != j {
				a.AddPeer(b.Name(), b.Node().ID())
			}
		}
	}
	return insts
}

// replFederation adds n Matrix-style homeservers replicating through
// gossip with gcfg, each peered with all the others, and returns them with
// their node IDs.
func replFederation(nw *simnet.Network, n int, gcfg gossip.Config) ([]*groupcomm.ReplServer, []simnet.NodeID) {
	srvs := make([]*groupcomm.ReplServer, n)
	for i := range srvs {
		srvs[i] = groupcomm.NewReplServer(nw.AddNode(), nil, gcfg)
	}
	ids := nodeIDs(srvs)
	for i, s := range srvs {
		s.SetPeers(othersOf(ids, i))
	}
	return srvs, ids
}

// friendMesh adds n socially-aware peers u0..u<n-1>, each syncing with a
// random friend every syncEvery, and befriends every pair.
func friendMesh(nw *simnet.Network, n int, syncEvery time.Duration) []*groupcomm.SocialPeer {
	peers := make([]*groupcomm.SocialPeer, n)
	for i := range peers {
		peers[i] = groupcomm.NewSocialPeer(nw.AddNode(), groupcomm.UserID(fmt.Sprintf("u%d", i)), syncEvery)
	}
	for i, a := range peers {
		for j, b := range peers {
			if i != j {
				a.Befriend(b.User(), b.Node().ID())
			}
		}
	}
	return peers
}

// storageFleet is one client and the providers it places chunks on.
type storageFleet struct {
	client *storage.Client
	provs  []*storage.Provider
	pool   []storage.ProviderRef
}

// newStorageFleet adds the client node, then n provider nodes.
func newStorageFleet(nw *simnet.Network, n int, timeout time.Duration, rcfg resil.Config, pcfg storage.ProviderConfig) storageFleet {
	f := storageFleet{
		client: storage.NewClient(nw.AddNode(), timeout, rcfg),
		provs:  make([]*storage.Provider, n),
		pool:   make([]storage.ProviderRef, n),
	}
	for i := range f.provs {
		f.provs[i] = storage.NewProvider(nw.AddNode(), pcfg)
		f.pool[i] = f.provs[i].Ref()
	}
	return f
}

// storedObject is an uploaded object and where its chunks went; m is nil
// when the upload failed.
type storedObject struct {
	data []byte
	m    *storage.Manifest
	pl   *storage.Placement
}

// uploadPattern stores the 4 KiB object byte(i·mult) as 512-byte chunks,
// three replicas each, and runs the network a minute for the placement.
func (f storageFleet) uploadPattern(nw *simnet.Network, mult int) *storedObject {
	o := &storedObject{data: make([]byte, 4096)}
	for i := range o.data {
		o.data[i] = byte(i * mult)
	}
	f.client.Upload(o.data, 512, f.pool, 3, func(m *storage.Manifest, pl *storage.Placement, err error) {
		if err == nil {
			o.m, o.pl = m, pl
		}
	})
	nw.Run(nw.Now() + time.Minute)
	return o
}

// webSwarm is a hostless-web world: the tracker, the site author, and
// whatever peers join.
type webSwarm struct {
	nw      *simnet.Network
	tracker *webapp.Tracker
	author  *webapp.Peer
	timeout time.Duration
}

// newWebSwarm adds the tracker node, then the author on the given link.
func newWebSwarm(nw *simnet.Network, authorLink simnet.LinkProfile, timeout time.Duration) *webSwarm {
	s := &webSwarm{nw: nw, tracker: webapp.NewTracker(nw.AddNode()), timeout: timeout}
	s.author = s.peer(authorLink, dht.Config{}, webapp.PeerConfig{})
	return s
}

func (s *webSwarm) peer(link simnet.LinkProfile, dcfg dht.Config, pcfg webapp.PeerConfig) *webapp.Peer {
	node := s.nw.AddNodeWithProfile(link)
	return webapp.NewPeer(node, dht.NewPeer(node, dht.Key{}, dcfg), s.tracker.Node().ID(), s.timeout, pcfg)
}

// join adds n peers whose DHT halves bootstrap through the author: at once
// when stagger is zero, else peer i at (i+1)·stagger from now.
func (s *webSwarm) join(n int, link simnet.LinkProfile, dcfg dht.Config, pcfg webapp.PeerConfig, stagger time.Duration) []*webapp.Peer {
	peers := make([]*webapp.Peer, n)
	for i := range peers {
		p := s.peer(link, dcfg, pcfg)
		peers[i] = p
		bootstrap := func() { p.DHT().Bootstrap(s.author.DHT().Contact(), nil) }
		if stagger == 0 {
			bootstrap()
		} else {
			s.nw.After(time.Duration(i+1)*stagger, bootstrap)
		}
	}
	return peers
}

// publish has the author publish version 1 of a site and runs the network
// a minute for the manifest to replicate; the address is zero when the
// publish failed.
func (s *webSwarm) publish(owner *cryptoutil.KeyPair, files map[string][]byte) cryptoutil.Hash {
	var site cryptoutil.Hash
	s.author.Publish(owner, 1, files, cryptoutil.Hash{}, func(m *webapp.Manifest) { site = m.Site })
	s.nw.Run(s.nw.Now() + time.Minute)
	return site
}
