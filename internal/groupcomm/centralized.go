package groupcomm

import (
	"time"

	"repro/internal/simnet"
)

// CentralServer is the feudal baseline: one platform holding every room,
// applying one global moderation policy, able to ban any user. When it is
// down, the service does not exist.
type CentralServer struct {
	rpc    *simnet.RPCNode
	rooms  map[string][]Post
	policy *ModerationPolicy
	// Moderated counts posts refused by policy.
	Moderated int
}

// RPC methods for the centralized model.
const (
	methodCentralPost  = "gc.central.post"
	methodCentralFetch = "gc.central.fetch"
)

type fetchResp struct {
	Posts []Post
}

// NewCentralServer starts the platform on a node.
func NewCentralServer(node *simnet.Node, policy *ModerationPolicy) *CentralServer {
	s := &CentralServer{rpc: simnet.NewRPCNode(node), rooms: map[string][]Post{}, policy: policy}
	s.rpc.Serve(methodCentralPost, s.onPost)
	s.rpc.Serve(methodCentralFetch, s.onFetch)
	return s
}

// Node returns the server's simnet node.
func (s *CentralServer) Node() *simnet.Node { return s.rpc.Node() }

func (s *CentralServer) onPost(from simnet.NodeID, req any) (any, int) {
	p, ok := req.(Post)
	if !ok {
		return false, 8
	}
	if !s.policy.Allows(p) {
		s.Moderated++
		return false, 8
	}
	s.rooms[p.Room] = append(s.rooms[p.Room], p)
	return true, 8
}

func (s *CentralServer) onFetch(from simnet.NodeID, req any) (any, int) {
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

// CentralClient is a user of the centralized platform.
type CentralClient struct {
	rpc     *simnet.RPCNode
	server  simnet.NodeID
	user    UserID
	timeout time.Duration
}

// NewCentralClient creates a client for user on node, homed on server.
func NewCentralClient(node *simnet.Node, server simnet.NodeID, user UserID, timeout time.Duration) *CentralClient {
	return &CentralClient{rpc: simnet.NewRPCNode(node), server: server, user: user, timeout: timeout}
}

// User returns the client's user ID.
func (c *CentralClient) User() UserID { return c.user }

// Post publishes body into room. done reports acceptance (false on
// moderation, timeout, or server failure).
func (c *CentralClient) Post(room string, body []byte, done func(ok bool)) {
	p := NewPost(room, c.user, body, c.rpc.Node().Now())
	c.rpc.Call(c.server, methodCentralPost, p, p.WireSize(), c.timeout, func(resp any, err error) {
		ok, _ := resp.(bool)
		done(err == nil && ok)
	})
}

// Fetch reads a room's history. ok is false when the platform is
// unreachable.
func (c *CentralClient) Fetch(room string, done func(posts []Post, ok bool)) {
	c.rpc.Call(c.server, methodCentralFetch, room, 32, c.timeout, func(resp any, err error) {
		if err != nil {
			done(nil, false)
			return
		}
		fr, ok := resp.(fetchResp)
		done(fr.Posts, ok)
	})
}
