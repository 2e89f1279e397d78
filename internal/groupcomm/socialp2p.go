package groupcomm

import (
	"sort"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/simnet"
)

// SocialPeer is one user in the socially-aware P2P model (PrPl, Persona,
// Lockr): there are no servers, every user runs a node, and data moves only
// along declared friendship edges. A peer accepts a post only if its author
// is a friend — the social-trust admission control that buys privacy at the
// cost of availability ("this comes at a price of reduced availability
// since nodes accept connections only from socially-trusted peers", §3.2).
//
// Propagation is push-to-friends at post time plus periodic anti-entropy
// with a random online friend, so two friends whose uptime never overlaps
// with the original push can still converge — if and when they are online
// together.
type SocialPeer struct {
	node    *simnet.Node
	rpc     *simnet.RPCNode
	user    UserID
	friends map[UserID]bool
	addrs   map[UserID]simnet.NodeID
	// posts[author] holds accepted posts, author ∈ friends ∪ {self}.
	posts map[UserID][]Post
	seen  map[cryptoutil.Hash]bool
	// RefusedNonFriend counts posts rejected by the trust check.
	RefusedNonFriend int
	syncEvery        time.Duration
}

// Wire kinds for the social P2P model.
const (
	msgSocialPost = "gc.social.post"
	msgSocialSync = "gc.social.sync" // anti-entropy digest
	msgSocialWant = "gc.social.want"
)

type socialPostMsg struct {
	From UserID
	Post Post
}

type socialSyncMsg struct {
	From UserID
	IDs  []cryptoutil.Hash
}

type socialWantMsg struct {
	From  UserID
	Posts []Post
}

// NewSocialPeer creates a peer for user on node. syncEvery sets the
// anti-entropy period (0 disables).
func NewSocialPeer(node *simnet.Node, user UserID, syncEvery time.Duration) *SocialPeer {
	p := &SocialPeer{
		node:      node,
		rpc:       simnet.NewRPCNode(node),
		user:      user,
		friends:   map[UserID]bool{},
		addrs:     map[UserID]simnet.NodeID{},
		posts:     map[UserID][]Post{},
		seen:      map[cryptoutil.Hash]bool{},
		syncEvery: syncEvery,
	}
	node.Handle(msgSocialPost, p.onPost)
	node.Handle(msgSocialSync, p.onSync)
	node.Handle(msgSocialWant, p.onWant)
	if syncEvery > 0 {
		p.scheduleSync()
	}
	return p
}

// User returns the peer's user ID.
func (p *SocialPeer) User() UserID { return p.user }

// Node returns the peer's simnet node.
func (p *SocialPeer) Node() *simnet.Node { return p.node }

// Befriend declares a (unidirectional) friend edge toward other; call on
// both peers for mutual friendship.
func (p *SocialPeer) Befriend(other UserID, addr simnet.NodeID) {
	p.friends[other] = true
	p.addrs[other] = addr
}

// IsFriend reports whether u is a declared friend.
func (p *SocialPeer) IsFriend(u UserID) bool { return p.friends[u] }

// NumFriends returns the friend count.
func (p *SocialPeer) NumFriends() int { return len(p.friends) }

// Publish stores a post locally and pushes it to all friends (in sorted
// order, so simulation runs stay deterministic despite map storage).
func (p *SocialPeer) Publish(room string, body []byte) Post {
	post := NewPost(room, p.user, body, p.node.Now())
	p.accept(post)
	// One boxed message serves every friend: receivers copy it out of the
	// interface, so nothing downstream writes to it.
	var msg any = socialPostMsg{From: p.user, Post: post}
	size := post.WireSize() + 32
	for _, friend := range p.sortedFriends() {
		p.node.Send(p.addrs[friend], msgSocialPost, msg, size)
	}
	return post
}

// sortedFriends returns friend IDs in stable order.
func (p *SocialPeer) sortedFriends() []UserID {
	out := make([]UserID, 0, len(p.addrs))
	for u := range p.addrs { //determinism:ok sorted straight after
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PostsBy returns accepted posts authored by u.
func (p *SocialPeer) PostsBy(u UserID) []Post { return p.posts[u] }

// Has reports whether the peer holds the post.
func (p *SocialPeer) Has(id cryptoutil.Hash) bool { return p.seen[id] }

// accept stores a post if it passes the trust check.
func (p *SocialPeer) accept(post Post) bool {
	if post.Author != p.user && !p.friends[post.Author] {
		p.RefusedNonFriend++
		return false
	}
	if p.seen[post.ID] {
		return false
	}
	p.seen[post.ID] = true
	p.posts[post.Author] = append(p.posts[post.Author], post)
	return true
}

func (p *SocialPeer) onPost(msg simnet.Message) {
	m := msg.Payload.(socialPostMsg)
	// Admission control: the *sender* must be a friend, and accept()
	// re-checks the author.
	if !p.friends[m.From] {
		p.RefusedNonFriend++
		return
	}
	p.accept(m.Post)
}

func (p *SocialPeer) scheduleSync() {
	// Node-local timer, so a skewed device clock syncs early or late.
	period := p.syncEvery
	jit := time.Duration(p.node.Rand().Int63n(int64(period)/2)) - period/4
	p.node.After(period+jit, func() {
		if p.node.Up() && len(p.addrs) > 0 {
			// Pick one random friend (from a sorted list, for determinism)
			// and exchange digests.
			keys := p.sortedFriends()
			friend := keys[p.node.Rand().Intn(len(keys))]
			ids := make([]cryptoutil.Hash, 0, len(p.seen))
			for id := range p.seen { //determinism:ok the receiver reads the digest only as a set
				ids = append(ids, id)
			}
			p.node.Send(p.addrs[friend], msgSocialSync, socialSyncMsg{From: p.user, IDs: ids}, 32+32*len(ids))
		}
		p.scheduleSync()
	})
}

func (p *SocialPeer) onSync(msg simnet.Message) {
	m := msg.Payload.(socialSyncMsg)
	if !p.friends[m.From] {
		return
	}
	theirs := make(map[cryptoutil.Hash]bool, len(m.IDs))
	for _, id := range m.IDs {
		theirs[id] = true
	}
	// Send posts they lack. We cannot know the requester's friend list, so
	// we send everything we hold and let their trust check filter; we only
	// hold friend-authored posts ourselves, so the overshare is bounded.
	var missing []Post
	size := 32
	authors := make([]UserID, 0, len(p.posts))
	for a := range p.posts { //determinism:ok sorted straight after
		authors = append(authors, a)
	}
	sort.Slice(authors, func(i, j int) bool { return authors[i] < authors[j] })
	for _, a := range authors {
		for _, post := range p.posts[a] {
			if !theirs[post.ID] {
				missing = append(missing, post)
				size += post.WireSize()
			}
		}
	}
	if len(missing) > 0 {
		p.node.Send(msg.From, msgSocialWant, socialWantMsg{From: p.user, Posts: missing}, size)
	}
}

func (p *SocialPeer) onWant(msg simnet.Message) {
	m := msg.Payload.(socialWantMsg)
	if !p.friends[m.From] {
		return
	}
	for _, post := range m.Posts {
		p.accept(post)
	}
}
