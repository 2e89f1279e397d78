package groupcomm

import (
	"time"

	"repro/internal/gossip"
	"repro/internal/resil"
	"repro/internal/simnet"
)

// FederatedReplicated is the Matrix model: every server participating in a
// room replicates its full history via gossip with anti-entropy, so the
// room survives any minority of server failures. Users still home on one
// server for writes, but reads can fail over to any surviving server.
// Each server applies its own moderation policy to what it accepts and
// relays (application-level moderation, as Matrix allows). A federation
// of one such server is the centralized platform.

// ReplServer is one Matrix-style homeserver, or, standalone, the
// centralized platform.
type ReplServer struct {
	rpc    *simnet.RPCNode
	member *gossip.Member // nil on a standalone server
	rooms  map[string][]Post
	policy *ModerationPolicy
}

// RPC methods for the replicated-federation model.
const (
	methodReplPost  = "gc.repl.post"
	methodReplFetch = "gc.repl.fetch"
)

// NewReplServer starts a homeserver. The gossip config controls
// replication fan-out and anti-entropy repair. Built with the zero
// gossip.Config (no fan-out), the server has no gossip member and no
// peers: it stores each post it accepts itself, and is the centralized
// platform — one operator, one moderation policy, and no service at all
// while it is down.
func NewReplServer(node *simnet.Node, policy *ModerationPolicy, gcfg gossip.Config) *ReplServer {
	s := &ReplServer{rpc: simnet.NewRPCNode(node), rooms: map[string][]Post{}, policy: policy}
	if gcfg != (gossip.Config{}) {
		s.member = gossip.NewMember(node, gcfg)
		s.member.OnDeliver(func(it gossip.Item) {
			if p, ok := it.Data.(Post); ok {
				s.store(p)
			}
		})
	}
	s.rpc.Serve(methodReplPost, s.onPost)
	s.rpc.Serve(methodReplFetch, s.onFetch)
	return s
}

// Node returns the server's simnet node.
func (s *ReplServer) Node() *simnet.Node { return s.rpc.Node() }

// SetPeers wires the replication mesh (other servers in the federation);
// a standalone server has none.
func (s *ReplServer) SetPeers(peers []simnet.NodeID) { s.member.SetPeers(peers) }

func (s *ReplServer) store(p Post) { s.rooms[p.Room] = append(s.rooms[p.Room], p) }

func (s *ReplServer) onPost(from simnet.NodeID, req any) (any, int) {
	p, ok := req.(Post)
	if !ok {
		return false, 8
	}
	if !s.policy.Allows(p) {
		return false, 8
	}
	if s.member == nil {
		s.store(p)
	} else {
		s.member.Publish(gossip.Item{ID: p.ID, Data: p, Size: p.WireSize()})
	}
	return true, 8
}

func (s *ReplServer) onFetch(from simnet.NodeID, req any) (any, int) {
	room, ok := req.(string)
	if !ok {
		return fetchResp{}, 8
	}
	posts := s.rooms[room]
	size := 16
	for _, p := range posts {
		size += p.WireSize()
	}
	return fetchResp{Posts: posts}, size
}

// ReplClient is a user of the replicated federation. Writes go to the home
// server; reads try the home server first and fail over through the known
// server list. A client with an empty list is the centralized platform's:
// when its one server is down, it can neither post nor read.
type ReplClient struct {
	rpc     simnet.Caller // resil.Wrap'd
	home    simnet.NodeID
	servers []simnet.NodeID // failover order for reads
	user    UserID
	timeout time.Duration
}

// NewReplClient creates a client homed on home, aware of the full server
// list for read failover. With a resilience configuration, posts and fetch
// failover legs ride the adaptive retry/breaker layer, so a crashed
// homeserver is suspected instead of eating a full timeout on every read;
// the zero value is the historical fixed-timeout transport.
func NewReplClient(node *simnet.Node, home simnet.NodeID, servers []simnet.NodeID, user UserID, timeout time.Duration, rcfg resil.Config) *ReplClient {
	return &ReplClient{rpc: resil.Wrap(simnet.NewRPCNode(node), rcfg), home: home, servers: servers, user: user, timeout: timeout}
}

// Post publishes through the user's home server; it fails if the home
// server is down (accounts are not portable across homeservers — the
// residual centralization in Matrix).
func (c *ReplClient) Post(room string, body []byte, done func(ok bool)) {
	p := NewPost(room, c.user, body, c.rpc.Node().Now())
	c.rpc.Call(c.home, methodReplPost, p, p.WireSize(), c.timeout, func(resp any, err error) {
		ok, _ := resp.(bool)
		done(err == nil && ok)
	})
}

// Fetch reads a room, failing over across servers until one answers.
func (c *ReplClient) Fetch(room string, done func(posts []Post, ok bool)) {
	order := append([]simnet.NodeID{c.home}, c.servers...)
	c.tryFetch(room, order, 0, done)
}

func (c *ReplClient) tryFetch(room string, order []simnet.NodeID, i int, done func([]Post, bool)) {
	if i >= len(order) {
		done(nil, false)
		return
	}
	c.rpc.Call(order[i], methodReplFetch, room, 32, c.timeout, func(resp any, err error) {
		if err != nil {
			c.tryFetch(room, order, i+1, done)
			return
		}
		fr, ok := resp.(fetchResp)
		if !ok {
			c.tryFetch(room, order, i+1, done)
			return
		}
		done(fr.Posts, true)
	})
}
