package experiments

import (
	"fmt"
	"time"

	"repro/internal/groupcomm"
	"repro/internal/simnet"
)

// abuseSize sizes X9: readers, and the policy coverages swept.
// abuseSizes is full scale, then tiny.
type abuseSize struct {
	users     int
	coverages []float64
}

var abuseSizes = [2]abuseSize{{20, []float64{0, 0.25, 0.5, 0.75, 1}}, {5, []float64{0, 1}}}

// abuseMatrix is experiment X9: a spammer injects banned content; a
// word-filter policy is deployed at a varying fraction of the system's
// enforcement points, and we measure the fraction of users exposed to the
// spam. It quantifies §3.2's Abuse Prevention trade-off:
//
//   - centralized: one enforcement point — moderation is all-or-nothing
//     and instant ("the norms … are dictated by platform operators");
//   - federated-home: each instance moderates independently; exposure
//     falls roughly linearly with policy coverage;
//   - social-p2p: there is no operator to deploy anything — but the trust
//     graph is its own defense: a stranger's spam is refused outright,
//     and only users who befriended the spammer are exposed.
//
// Coverage means: fraction of instances applying the filter (federated),
// operator applying it or not (centralized, so only 0%/100% differ), and
// fraction of users who befriended the spammer (social-p2p, where the
// "enforcement point" is the friendship decision itself).
func abuseMatrix(seed int64, s abuseSize) Matrix {
	m := NewMatrix(
		[]string{"centralized (global filter)", "federated-home (per-instance filter)", "social-p2p (trust graph is the filter)"},
		labels("coverage=%.0f%%", 100, s.coverages))
	for c, cov := range s.coverages {
		for r, run := range []func(seed int64, users int, coverage float64) float64{centralAbuseRun, fedAbuseRun, socialAbuseRun} {
			m.Vals[r][c] = run(seed, s.users, cov)
		}
	}
	return m
}

var spamPolicy = &groupcomm.ModerationPolicy{BannedWords: []string{"spam"}}

const spamBody = "buy spam now"

// centralAbuseRun: one platform; coverage ≥ 0.5 means the operator turned
// the filter on.
func centralAbuseRun(seed int64, users int, coverage float64) float64 {
	nw := simnet.New(seed)
	var policy *groupcomm.ModerationPolicy
	if coverage >= 0.5 {
		policy = spamPolicy
	}
	srv := groupcomm.NewCentralServer(nw.AddNode(), policy)
	spammer := groupcomm.NewCentralClient(nw.AddNode(), srv.Node().ID(), "spammer", time.Minute)
	readers := make([]*groupcomm.CentralClient, users)
	for i := range readers {
		readers[i] = groupcomm.NewCentralClient(nw.AddNode(), srv.Node().ID(),
			groupcomm.UserID(fmt.Sprintf("u%d", i)), time.Minute)
	}
	spammer.Post("town", []byte(spamBody), func(bool) {})
	nw.RunAll()
	exposed := 0
	for _, r := range readers {
		r.Fetch("town", func(ps []groupcomm.Post, ok bool) {
			for _, p := range ps {
				if p.Author == "spammer" {
					exposed++
				}
			}
		})
		nw.RunAll()
	}
	return float64(exposed) / float64(users)
}

// fedAbuseRun: one instance per user; coverage fraction of instances run
// the filter. The spammer homes on a filterless instance (worst case).
func fedAbuseRun(seed int64, users int, coverage float64) float64 {
	nw := simnet.New(seed)
	n := users + 1 // +1 for the spammer's instance (always lax)
	insts := make([]*groupcomm.FedInstance, n)
	filtered := int(coverage * float64(users))
	for i := range insts {
		var policy *groupcomm.ModerationPolicy
		if i > 0 && i <= filtered {
			policy = spamPolicy
		}
		insts[i] = groupcomm.NewFedInstance(nw.AddNode(), fmt.Sprintf("inst%d", i), policy)
	}
	for i, a := range insts {
		for j, b := range insts {
			if i != j {
				a.AddPeer(b.Name(), b.Node().ID())
			}
		}
	}
	insts[0].AddUser("spammer")
	spammer := groupcomm.NewFedClient(nw.AddNode(), insts[0].Node().ID(), "spammer", time.Minute)
	readers := make([]*groupcomm.FedClient, users)
	for i := 0; i < users; i++ {
		u := groupcomm.UserID(fmt.Sprintf("u%d", i))
		insts[i+1].AddUser(u)
		readers[i] = groupcomm.NewFedClient(nw.AddNode(), insts[i+1].Node().ID(), u, time.Minute)
		insts[i+1].Follow(u, "spammer", "inst0")
	}
	nw.RunAll()
	spammer.Post("town", []byte(spamBody), func(bool) {})
	nw.RunAll()
	exposed := 0
	for _, r := range readers {
		r.Read(func(ps []groupcomm.Post, ok bool) {
			for _, p := range ps {
				if p.Author == "spammer" {
					exposed++
				}
			}
		})
		nw.RunAll()
	}
	return float64(exposed) / float64(users)
}

// socialAbuseRun: coverage is the fraction of users who befriended the
// spammer; everyone else's trust check refuses the content unseen.
func socialAbuseRun(seed int64, users int, coverage float64) float64 {
	nw := simnet.New(seed)
	spammer := groupcomm.NewSocialPeer(nw.AddNode(), "spammer", 0)
	peers := make([]*groupcomm.SocialPeer, users)
	befriended := int(coverage * float64(users))
	for i := range peers {
		peers[i] = groupcomm.NewSocialPeer(nw.AddNode(), groupcomm.UserID(fmt.Sprintf("u%d", i)), 0)
		// The spammer pushes to everyone it can address.
		spammer.Befriend(peers[i].User(), peers[i].Node().ID())
		if i < befriended {
			peers[i].Befriend("spammer", spammer.Node().ID())
		}
	}
	post := spammer.Publish("wall", []byte(spamBody))
	nw.RunAll()
	exposed := 0
	for _, p := range peers {
		if p.Has(post.ID) {
			exposed++
		}
	}
	return float64(exposed) / float64(users)
}
