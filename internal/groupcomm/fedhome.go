package groupcomm

import (
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// FederatedHome is the OStatus/Mastodon/GNU-social model: every user homes
// on exactly one instance; a post is accepted by the author's home
// instance, which pushes copies to each follower's instance. Reads are
// served only by the reader's own instance. There is no replication of an
// instance's authoritative state and no repair of missed pushes — if
// either endpoint instance is down at the wrong moment, the post is
// silently lost to that reader. Instances set their own moderation policies
// and may block ("defederate") other instances.

// FedInstance is one federation server.
type FedInstance struct {
	rpc  *simnet.RPCNode
	name string
	// users homed here.
	users map[UserID]bool
	// followers[author] lists instance names that asked for author's posts.
	followers map[UserID]map[string]bool
	// follows[user] lists who the user follows (for fan-in on reads).
	follows map[UserID]map[UserID]bool
	// received[author] caches posts pushed from remote instances.
	received map[UserID][]Post
	peers    map[string]simnet.NodeID
	policy   *ModerationPolicy
	blocked  map[string]bool // defederated instance names

	// Observability: federation-wide post/push/moderation totals.
	obsStored    *obs.Counter
	obsPushes    *obs.Counter
	obsModerated *obs.Counter
}

// RPC methods for the federated-home model.
const (
	methodFedPost   = "gc.fed.post"   // client -> home instance
	methodFedPush   = "gc.fed.push"   // instance -> follower instance
	methodFedRead   = "gc.fed.read"   // client -> own instance (timeline)
	methodFedFollow = "gc.fed.follow" // instance -> instance subscribe
)

type fedPostReq struct {
	Post Post
}

type fedPushReq struct {
	FromInstance string
	Post         Post
}

type fedFollowReq struct {
	FromInstance string
	Author       UserID
}

// NewFedInstance starts an instance with the given name and policy.
func NewFedInstance(node *simnet.Node, name string, policy *ModerationPolicy) *FedInstance {
	inst := &FedInstance{
		rpc:       simnet.NewRPCNode(node),
		name:      name,
		users:     map[UserID]bool{},
		followers: map[UserID]map[string]bool{},
		follows:   map[UserID]map[UserID]bool{},
		received:  map[UserID][]Post{},
		peers:     map[string]simnet.NodeID{},
		blocked:   map[string]bool{},
		policy:    policy,
	}
	inst.obsStored = node.Obs().Counter("groupcomm.fed.post.stored")
	inst.obsPushes = node.Obs().Counter("groupcomm.fed.push.sent")
	inst.obsModerated = node.Obs().Counter("groupcomm.fed.post.moderated")
	inst.rpc.Serve(methodFedPost, inst.onPost)
	inst.rpc.Serve(methodFedPush, inst.onPush)
	inst.rpc.Serve(methodFedRead, inst.onRead)
	inst.rpc.Serve(methodFedFollow, inst.onFollow)
	return inst
}

// Name returns the instance name.
func (fi *FedInstance) Name() string { return fi.name }

// Node returns the instance's simnet node.
func (fi *FedInstance) Node() *simnet.Node { return fi.rpc.Node() }

// AddPeer registers another instance's address.
func (fi *FedInstance) AddPeer(name string, addr simnet.NodeID) { fi.peers[name] = addr }

// AddUser homes a user on this instance.
func (fi *FedInstance) AddUser(u UserID) { fi.users[u] = true }

// Defederate blocks an entire remote instance — Mastodon-style
// instance-level moderation (§3.2: federations "define their own rules").
func (fi *FedInstance) Defederate(instance string) { fi.blocked[instance] = true }

// Follow records that local user u follows author (possibly remote, in
// which case a subscription is sent to the author's home instance).
func (fi *FedInstance) Follow(u UserID, author UserID, authorHome string) {
	if fi.follows[u] == nil {
		fi.follows[u] = map[UserID]bool{}
	}
	fi.follows[u][author] = true
	if authorHome == fi.name {
		if fi.followers[author] == nil {
			fi.followers[author] = map[string]bool{}
		}
		fi.followers[author][fi.name] = true
		return
	}
	if addr, ok := fi.peers[authorHome]; ok {
		req := fedFollowReq{FromInstance: fi.name, Author: author}
		fi.rpc.Call(addr, methodFedFollow, req, 64, 10*time.Second, func(any, error) {})
	}
}

func (fi *FedInstance) onFollow(from simnet.NodeID, req any) (any, int) {
	r, ok := req.(fedFollowReq)
	if !ok || fi.blocked[r.FromInstance] {
		return false, 8
	}
	if fi.followers[r.Author] == nil {
		fi.followers[r.Author] = map[string]bool{}
	}
	fi.followers[r.Author][r.FromInstance] = true
	return true, 8
}

func (fi *FedInstance) onPost(from simnet.NodeID, req any) (any, int) {
	r, ok := req.(fedPostReq)
	if !ok || !fi.users[r.Post.Author] {
		return false, 8
	}
	if !fi.policy.Allows(r.Post) {
		fi.obsModerated.Inc()
		return false, 8
	}
	fi.received[r.Post.Author] = append(fi.received[r.Post.Author], r.Post)
	fi.obsStored.Inc()
	// Push to every follower instance (sorted for determinism). A follower
	// instance that is down right now simply misses the post — the OStatus
	// weakness.
	names := make([]string, 0, len(fi.followers[r.Post.Author]))
	for n := range fi.followers[r.Post.Author] { //determinism:ok sorted straight after
		names = append(names, n)
	}
	sort.Strings(names)
	for _, instName := range names {
		if instName == fi.name || fi.blocked[instName] {
			continue
		}
		if addr, ok := fi.peers[instName]; ok {
			push := fedPushReq{FromInstance: fi.name, Post: r.Post}
			fi.obsPushes.Inc()
			fi.rpc.Call(addr, methodFedPush, push, r.Post.WireSize()+32, 10*time.Second, func(any, error) {})
		}
	}
	return true, 8
}

func (fi *FedInstance) onPush(from simnet.NodeID, req any) (any, int) {
	r, ok := req.(fedPushReq)
	if !ok || fi.blocked[r.FromInstance] {
		return false, 8
	}
	if !fi.policy.Allows(r.Post) {
		fi.obsModerated.Inc()
		return false, 8
	}
	fi.received[r.Post.Author] = append(fi.received[r.Post.Author], r.Post)
	fi.obsStored.Inc()
	return true, 8
}

// onRead assembles a user's timeline from the local cache: the posts of
// everyone they follow, as far as this instance has received them.
func (fi *FedInstance) onRead(from simnet.NodeID, req any) (any, int) {
	u, ok := req.(UserID)
	if !ok || !fi.users[u] {
		return fetchResp{}, 8
	}
	var posts []Post
	size := 16
	authors := make([]UserID, 0, len(fi.follows[u]))
	for a := range fi.follows[u] { //determinism:ok sorted straight after
		authors = append(authors, a)
	}
	sort.Slice(authors, func(i, j int) bool { return authors[i] < authors[j] })
	for _, author := range authors {
		for _, p := range fi.received[author] {
			posts = append(posts, p)
			size += p.WireSize()
		}
	}
	return fetchResp{Posts: posts}, size
}

// FedClient is a user of a federated-home instance.
type FedClient struct {
	rpc     *simnet.RPCNode
	home    simnet.NodeID
	user    UserID
	timeout time.Duration
}

// NewFedClient creates a client for user homed on the given instance node.
func NewFedClient(node *simnet.Node, home simnet.NodeID, user UserID, timeout time.Duration) *FedClient {
	return &FedClient{rpc: simnet.NewRPCNode(node), home: home, user: user, timeout: timeout}
}

// Post publishes to the user's home instance.
func (c *FedClient) Post(room string, body []byte, done func(ok bool)) {
	p := NewPost(room, c.user, body, c.rpc.Node().Now())
	c.rpc.Call(c.home, methodFedPost, fedPostReq{Post: p}, p.WireSize(), c.timeout, func(resp any, err error) {
		ok, _ := resp.(bool)
		done(err == nil && ok)
	})
}

// Read fetches the user's timeline from their home instance; ok is false
// when the instance is unreachable ("entire instances … inaccessible if
// they fail").
func (c *FedClient) Read(done func(posts []Post, ok bool)) {
	c.rpc.Call(c.home, methodFedRead, c.user, 32, c.timeout, func(resp any, err error) {
		if err != nil {
			done(nil, false)
			return
		}
		fr, ok := resp.(fetchResp)
		done(fr.Posts, ok)
	})
}

// StoredBytes returns the payload bytes this instance retains across all
// cached author timelines — the per-operator storage cost experiment X8
// compares against Usenet's full flooding.
func (fi *FedInstance) StoredBytes() int64 {
	var total int64
	for _, posts := range fi.received { //determinism:ok integer sum, order-independent
		for _, p := range posts {
			total += int64(p.WireSize())
		}
	}
	return total
}
