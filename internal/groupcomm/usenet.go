package groupcomm

import (
	"repro/internal/cryptoutil"
	"repro/internal/simnet"
)

// UsenetServer models the §3.2 historical baseline: "Usenet, one of the
// oldest messaging platforms on the Internet, offered a decentralized
// (federated), distributed online forum … Usenet eventually collapsed
// under its own traffic load." The defining property is full flooding:
// every article posted anywhere is relayed to and stored by every server,
// so each operator's storage and transit cost scales with *global* volume
// rather than local interest. Experiment X8 measures exactly that growth
// against the follower-scoped federated-home model.
type UsenetServer struct {
	node     *simnet.Node
	peers    []simnet.NodeID
	articles map[cryptoutil.Hash]Post
	// BytesStored accumulates the payload bytes this server retains.
	BytesStored int64
	// BytesRelayed accumulates the payload bytes this server forwarded.
	BytesRelayed int64
}

const msgUsenetArticle = "gc.usenet.article"

// NewUsenetServer starts a news server on node.
func NewUsenetServer(node *simnet.Node) *UsenetServer {
	s := &UsenetServer{node: node, articles: map[cryptoutil.Hash]Post{}}
	node.Handle(msgUsenetArticle, s.onArticle)
	return s
}

// Node returns the underlying simnet node.
func (s *UsenetServer) Node() *simnet.Node { return s.node }

// SetPeers wires the NNTP feed topology (typically a dense mesh).
func (s *UsenetServer) SetPeers(peers []simnet.NodeID) { s.peers = peers }

// PostLocal accepts an article from a locally connected user and floods it
// to every peer.
func (s *UsenetServer) PostLocal(group string, author UserID, body []byte) Post {
	p := NewPost(group, author, body, s.node.Now())
	s.accept(p, -1)
	return p
}

// accept stores a new article and relays it everywhere except where it
// came from.
func (s *UsenetServer) accept(p Post, from simnet.NodeID) bool {
	if _, ok := s.articles[p.ID]; ok {
		return false
	}
	s.articles[p.ID] = p
	size := p.WireSize()
	s.BytesStored += int64(size)
	// One boxed copy serves every peer: receivers copy the Post out of
	// the interface, so nothing downstream writes to it.
	var article any = p
	for _, peer := range s.peers {
		if peer == from || peer == s.node.ID() {
			continue
		}
		if s.node.Send(peer, msgUsenetArticle, article, size) {
			s.BytesRelayed += int64(size)
		}
	}
	return true
}

func (s *UsenetServer) onArticle(msg simnet.Message) {
	s.accept(msg.Payload.(Post), msg.From)
}
