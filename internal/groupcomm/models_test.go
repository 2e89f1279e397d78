package groupcomm

import (
	"testing"
	"time"

	"repro/internal/gossip"
	"repro/internal/resil"
	"repro/internal/simnet"
)

func TestModerationPolicy(t *testing.T) {
	p := &ModerationPolicy{
		BannedWords: []string{"spam"},
		BannedUsers: map[UserID]bool{"troll": true},
	}
	ok := NewPost("r", "alice", []byte("hello"), 0)
	if !p.Allows(ok) {
		t.Error("benign post blocked")
	}
	if p.Allows(NewPost("r", "alice", []byte("buy SPAM now"), 0)) {
		t.Error("banned word passed (case-insensitivity broken)")
	}
	if p.Allows(NewPost("r", "troll", []byte("hello"), 0)) {
		t.Error("banned user passed")
	}
	var nilPolicy *ModerationPolicy
	if !nilPolicy.Allows(ok) {
		t.Error("nil policy should allow everything")
	}
}

func TestPostIDsUnique(t *testing.T) {
	a := NewPost("r", "u", []byte("x"), 1)
	b := NewPost("r", "u", []byte("x"), 2)
	if a.ID == b.ID {
		t.Error("posts at different times should have different IDs")
	}
	if a.WireSize() <= 0 {
		t.Error("wire size")
	}
}

func TestExposuresOrdering(t *testing.T) {
	exp := Exposures()
	if len(exp) != 4 {
		t.Fatalf("models = %d", len(exp))
	}
	byModel := map[string]MetadataExposure{}
	for _, e := range exp {
		byModel[e.Model] = e
		if e.Note == "" {
			t.Errorf("%s missing note", e.Model)
		}
	}
	if byModel["centralized"].ObserverCount(10) != 1 {
		t.Error("centralized should expose to exactly the platform")
	}
	if byModel["federated-home"].ObserverCount(10) != 2 {
		t.Error("federated-home should expose to both instances")
	}
	if byModel["federated-replicated"].ObserverCount(10) != 10 {
		t.Error("federated-replicated should expose to all participating servers")
	}
	if byModel["federated-replicated"].ObserverCount(0) != 1 {
		t.Error("degenerate server count should clamp to 1")
	}
	if byModel["social-p2p"].ObserverCount(10) != 0 {
		t.Error("social-p2p should expose to no operators")
	}
}

// platform starts the centralized platform: one standalone ReplServer
// (the zero gossip.Config) and a client per user with no failover list.
func platform(nw *simnet.Network, policy *ModerationPolicy, timeout time.Duration, users ...UserID) (*ReplServer, []*ReplClient) {
	srv := NewReplServer(nw.AddNode(), policy, gossip.Config{})
	clients := make([]*ReplClient, len(users))
	for i, u := range users {
		clients[i] = NewReplClient(nw.AddNode(), srv.Node().ID(), nil, u, timeout, resil.Config{})
	}
	return srv, clients
}

func TestCentralizedPostFetchModeration(t *testing.T) {
	nw := simnet.New(1)
	srv, c := platform(nw, &ModerationPolicy{BannedWords: []string{"forbidden"}}, time.Minute, "alice", "bob")
	alice, bob := c[0], c[1]

	var ok1, ok2 bool
	alice.Post("town-square", []byte("hello world"), func(ok bool) { ok1 = ok })
	alice.Post("town-square", []byte("forbidden words"), func(ok bool) { ok2 = ok })
	nw.RunAll()
	if !ok1 {
		t.Fatal("benign post rejected")
	}
	if ok2 {
		t.Fatal("moderated post accepted")
	}
	var posts []Post
	bob.Fetch("town-square", func(ps []Post, ok bool) { posts = ps })
	nw.RunAll()
	if len(posts) != 1 || posts[0].Author != "alice" || string(posts[0].Body) != "hello world" {
		t.Fatalf("fetch got %d posts, want alice's benign one only", len(posts))
	}
	if len(srv.rooms["town-square"]) != 1 {
		t.Error("server room length")
	}
}

func TestCentralizedTotalOutage(t *testing.T) {
	nw := simnet.New(2)
	srv, c := platform(nw, nil, 5*time.Second, "alice")
	srv.Node().Crash()
	posted, fetched := true, true
	c[0].Post("r", []byte("x"), func(ok bool) { posted = ok })
	c[0].Fetch("r", func(ps []Post, ok bool) { fetched = ok })
	nw.RunAll()
	if posted || fetched {
		t.Error("centralized platform should be completely unavailable when down")
	}
}

// fedWorld builds n federated-home instances, each with one user
// ("user<i>"), fully peered, everyone following everyone.
func fedWorld(t testing.TB, seed int64, n int) (*simnet.Network, []*FedInstance, []*FedClient) {
	t.Helper()
	nw := simnet.New(seed)
	insts := make([]*FedInstance, n)
	for i := range insts {
		insts[i] = NewFedInstance(nw.AddNode(), instName(i), nil)
	}
	for i, a := range insts {
		for j, b := range insts {
			if i != j {
				a.AddPeer(b.Name(), b.Node().ID())
			}
		}
	}
	clients := make([]*FedClient, n)
	for i := range clients {
		u := userName(i)
		insts[i].AddUser(u)
		clients[i] = NewFedClient(nw.AddNode(), insts[i].Node().ID(), u, 10*time.Second)
	}
	for i, inst := range insts {
		for j := range insts {
			if i != j {
				inst.Follow(userName(i), userName(j), instName(j))
			}
		}
		// Users see their own posts, too.
		inst.Follow(userName(i), userName(i), instName(i))
	}
	nw.RunAll() // settle follow subscriptions
	return nw, insts, clients
}

func instName(i int) string { return "inst" + string(rune('A'+i)) }
func userName(i int) UserID { return UserID("user" + string(rune('A'+i))) }

func TestFederatedHomeDelivery(t *testing.T) {
	nw, _, clients := fedWorld(t, 3, 3)
	var posted bool
	clients[0].Post("town", []byte("hello fediverse"), func(ok bool) { posted = ok })
	nw.RunAll()
	if !posted {
		t.Fatal("post rejected")
	}
	for i, c := range clients {
		var got []Post
		okRead := false
		c.Read(func(ps []Post, ok bool) { got, okRead = ps, ok })
		nw.RunAll()
		if !okRead {
			t.Fatalf("reader %d could not read", i)
		}
		found := false
		for _, p := range got {
			if p.Author == "userA" {
				found = true
			}
		}
		if !found {
			t.Errorf("reader %d missed the federated post", i)
		}
	}
}

func TestFederatedHomeInstanceDeathLosesReaders(t *testing.T) {
	nw, insts, clients := fedWorld(t, 4, 3)
	// Kill instance B: its user can neither post nor read.
	insts[1].Node().Crash()
	posted, read := true, true
	clients[1].Post("town", []byte("x"), func(ok bool) { posted = ok })
	clients[1].Read(func(ps []Post, ok bool) { read = ok })
	nw.RunAll()
	if posted || read {
		t.Error("user on dead instance should be fully cut off (OStatus bottleneck)")
	}
	// Users on other instances continue among themselves.
	var ok0 bool
	clients[0].Post("town", []byte("still here"), func(ok bool) { ok0 = ok })
	nw.RunAll()
	if !ok0 {
		t.Error("survivor could not post")
	}
	var cGot []Post
	clients[2].Read(func(ps []Post, ok bool) { cGot = ps })
	nw.RunAll()
	found := false
	for _, p := range cGot {
		if string(p.Body) == "still here" {
			found = true
		}
	}
	if !found {
		t.Error("survivor-to-survivor delivery failed")
	}
}

func TestFederatedHomeMissedPushNotRepaired(t *testing.T) {
	nw, insts, clients := fedWorld(t, 5, 2)
	// Reader's instance down during the push; it never recovers the post.
	insts[1].Node().Crash()
	clients[0].Post("town", []byte("missed"), func(bool) {})
	nw.RunAll()
	insts[1].Node().Restart()
	nw.Run(nw.Now() + time.Hour)
	var got []Post
	clients[1].Read(func(ps []Post, ok bool) { got = ps })
	nw.RunAll()
	for _, p := range got {
		if string(p.Body) == "missed" {
			t.Fatal("OStatus model unexpectedly repaired a missed push")
		}
	}
}

func TestFederatedHomeDefederationAndPolicy(t *testing.T) {
	nw, insts, clients := fedWorld(t, 6, 2)
	insts[1].Defederate(instName(0))
	clients[0].Post("town", []byte("blocked content"), func(bool) {})
	nw.RunAll()
	var got []Post
	clients[1].Read(func(ps []Post, ok bool) { got = ps })
	nw.RunAll()
	for _, p := range got {
		if p.Author == userName(0) {
			t.Fatal("defederated instance's post leaked through")
		}
	}

	// Per-instance word policy.
	nw2 := simnet.New(7)
	strict := NewFedInstance(nw2.AddNode(), "strict", &ModerationPolicy{BannedWords: []string{"rude"}})
	strict.AddUser("u")
	cl := NewFedClient(nw2.AddNode(), strict.Node().ID(), "u", time.Minute)
	var ok bool
	cl.Post("town", []byte("rude text"), func(o bool) { ok = o })
	nw2.RunAll()
	if moderated := nw2.Obs().Counter("groupcomm.fed.post.moderated").Value(); ok || moderated != 1 {
		t.Errorf("instance policy did not moderate: accepted=%v moderated=%d", ok, moderated)
	}
}

// replWorld builds n Matrix-style servers in a gossip mesh with one client
// each.
func replWorld(t testing.TB, seed int64, n int) (*simnet.Network, []*ReplServer, []*ReplClient) {
	t.Helper()
	nw := simnet.New(seed)
	servers := make([]*ReplServer, n)
	ids := make([]simnet.NodeID, n)
	for i := range servers {
		servers[i] = NewReplServer(nw.AddNode(), nil,
			gossip.Config{Fanout: 3, AntiEntropyInterval: 30 * time.Second})
		ids[i] = servers[i].Node().ID()
	}
	for i, s := range servers {
		var peers []simnet.NodeID
		for j, id := range ids {
			if j != i {
				peers = append(peers, id)
			}
		}
		s.SetPeers(peers)
	}
	clients := make([]*ReplClient, n)
	for i := range clients {
		clients[i] = NewReplClient(nw.AddNode(), ids[i], ids, userName(i), 5*time.Second, resil.Config{})
	}
	return nw, servers, clients
}

func TestReplicatedDeliveryEverywhere(t *testing.T) {
	nw, servers, clients := replWorld(t, 8, 5)
	var posted bool
	clients[0].Post("room", []byte("replicate me"), func(ok bool) { posted = ok })
	nw.Run(nw.Now() + 5*time.Minute)
	if !posted {
		t.Fatal("post failed")
	}
	for i, s := range servers {
		if len(s.rooms["room"]) != 1 {
			t.Errorf("server %d has %d posts, want 1", i, len(s.rooms["room"]))
		}
	}
}

func TestReplicatedReadFailover(t *testing.T) {
	nw, servers, clients := replWorld(t, 9, 4)
	clients[0].Post("room", []byte("survives"), func(bool) {})
	nw.Run(nw.Now() + 5*time.Minute)
	// Kill the reader's home server; read must fail over.
	servers[1].Node().Crash()
	var got []Post
	okRead := false
	clients[1].Fetch("room", func(ps []Post, ok bool) { got, okRead = ps, ok })
	nw.Run(nw.Now() + time.Minute)
	if !okRead || len(got) != 1 {
		t.Errorf("failover read: ok=%v posts=%d", okRead, len(got))
	}
	// Posting through a dead home still fails (accounts are homed).
	var posted bool
	clients[1].Post("room", []byte("nope"), func(ok bool) { posted = ok })
	nw.Run(nw.Now() + time.Minute)
	if posted {
		t.Error("post through dead home server should fail")
	}
}

func TestReplicatedRepairAfterRestart(t *testing.T) {
	nw, servers, clients := replWorld(t, 10, 4)
	servers[3].Node().Crash()
	clients[0].Post("room", []byte("while you were out"), func(bool) {})
	nw.Run(nw.Now() + time.Minute)
	servers[3].Node().Restart()
	nw.Run(nw.Now() + 10*time.Minute) // anti-entropy repairs
	if len(servers[3].rooms["room"]) != 1 {
		t.Error("restarted server did not repair history (anti-entropy)")
	}
}

func TestSocialP2PFriendDelivery(t *testing.T) {
	nw := simnet.New(11)
	a := NewSocialPeer(nw.AddNode(), "alice", 0)
	b := NewSocialPeer(nw.AddNode(), "bob", 0)
	c := NewSocialPeer(nw.AddNode(), "carol", 0)
	// alice↔bob friends; carol is a stranger who somehow knows the address.
	a.Befriend("bob", b.Node().ID())
	b.Befriend("alice", a.Node().ID())
	c.Befriend("alice", a.Node().ID()) // carol considers alice a friend; not mutual

	post := a.Publish("wall", []byte("friends only"))
	nw.RunAll()
	if !b.Has(post.ID) {
		t.Error("friend did not receive post")
	}
	if c.Has(post.ID) {
		t.Error("non-friend received post")
	}
	if len(b.PostsBy("alice")) != 1 {
		t.Error("PostsBy wrong")
	}
	if a.NumFriends() != 1 || !a.IsFriend("bob") {
		t.Error("friend bookkeeping")
	}
}

func TestSocialP2PNonFriendRefused(t *testing.T) {
	nw := simnet.New(12)
	a := NewSocialPeer(nw.AddNode(), "alice", 0)
	m := NewSocialPeer(nw.AddNode(), "mallory", 0)
	// Mallory declares friendship unilaterally and pushes.
	m.Befriend("alice", a.Node().ID())
	post := m.Publish("wall", []byte("spam"))
	nw.RunAll()
	if a.Has(post.ID) {
		t.Error("unilateral 'friend' injected a post")
	}
	if a.RefusedNonFriend == 0 {
		t.Error("refusal not counted")
	}
}

func TestSocialP2PAntiEntropyBridgesDowntime(t *testing.T) {
	nw := simnet.New(13)
	a := NewSocialPeer(nw.AddNode(), "alice", 30*time.Second)
	b := NewSocialPeer(nw.AddNode(), "bob", 30*time.Second)
	c := NewSocialPeer(nw.AddNode(), "carol", 30*time.Second)
	// Triangle of mutual friends.
	a.Befriend("bob", b.Node().ID())
	a.Befriend("carol", c.Node().ID())
	b.Befriend("alice", a.Node().ID())
	b.Befriend("carol", c.Node().ID())
	c.Befriend("alice", a.Node().ID())
	c.Befriend("bob", b.Node().ID())

	// Carol is down during the push, alice goes down after, but bob stays
	// up and syncs the post to carol later.
	c.Node().Crash()
	post := a.Publish("wall", []byte("offline carol"))
	nw.Run(nw.Now() + time.Minute)
	a.Node().Crash()
	c.Node().Restart()
	nw.Run(nw.Now() + 10*time.Minute)
	if !c.Has(post.ID) {
		t.Error("anti-entropy via mutual friend failed")
	}
}

func TestSocialP2PNoOverlapNoDelivery(t *testing.T) {
	nw := simnet.New(14)
	a := NewSocialPeer(nw.AddNode(), "alice", 30*time.Second)
	b := NewSocialPeer(nw.AddNode(), "bob", 30*time.Second)
	a.Befriend("bob", b.Node().ID())
	b.Befriend("alice", a.Node().ID())
	b.Node().Crash()
	post := a.Publish("wall", []byte("ships in the night"))
	nw.Run(nw.Now() + time.Minute)
	a.Node().Crash()
	b.Node().Restart()
	nw.Run(nw.Now() + 10*time.Minute)
	if b.Has(post.ID) {
		t.Error("delivery without uptime overlap or common friend should fail — that's the availability cost")
	}
}
