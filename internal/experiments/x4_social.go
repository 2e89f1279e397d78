package experiments

import (
	"fmt"
	"time"

	"repro/internal/groupcomm"
	"repro/internal/simnet"
)

// socialSize sizes X4: users, and the mean degrees and availabilities
// swept. socialSizes is full scale, then tiny.
type socialSize struct {
	users  int
	degree []int
	uptime []float64
}

var socialSizes = [2]socialSize{{30, []int{2, 4, 8}, []float64{0.5, 0.75, 0.95}}, {6, []int{2}, []float64{0.75}}}

// socialTrials is how many runs each cell of the single-seed X4 table
// averages; the multi-seed core runs one per seed.
const socialTrials = 5

// socialP2PMatrix is experiment X4: in a random friend graph of N users
// with mean degree d, under churn with long-run availability a, an author
// publishes a post; after a fixed horizon we measure what fraction of the
// author's friends hold the post. §3.2: socially-aware P2P "comes at a
// price of reduced availability since nodes accept connections only from
// socially-trusted peers" — availability rises with degree (more sync
// paths) and with per-node uptime. Each (degree, availability) cell
// averages `trials` runs at seeds seed + i·7919.
func socialP2PMatrix(env Env, s socialSize, trials int) Matrix {
	mx := NewMatrix(labels("%d", 1, s.degree), labels("uptime=%.0f%%", 100, s.uptime))
	for r, d := range s.degree {
		for c, a := range s.uptime {
			sum := 0.0
			for _, v := range runTrials(env, strideSeeds(env.Seed, 7919, trials), 0, func(env Env) float64 {
				return socialP2PRun(env, s.users, d, a)
			}) {
				sum += v
			}
			mx.Vals[r][c] = sum / float64(trials)
		}
	}
	return mx
}

func socialP2PRun(env Env, users, degree int, availability float64) float64 {
	nw := env.WithSeed(env.Seed + int64(degree*1000) + int64(availability*100)).Net()
	peers := make([]*groupcomm.SocialPeer, users)
	for i := range peers {
		peers[i] = groupcomm.NewSocialPeer(nw.AddNode(), groupcomm.UserID(fmt.Sprintf("u%d", i)), 60*time.Second)
	}
	// Random graph with ~degree mutual friends per node.
	rng := nw.Rand()
	befriend := func(i, j int) {
		peers[i].Befriend(peers[j].User(), peers[j].Node().ID())
		peers[j].Befriend(peers[i].User(), peers[i].Node().ID())
	}
	if degree >= users {
		degree = users - 1
	}
	for i := range peers {
		for attempts := 0; peers[i].NumFriends() < degree && attempts < users*20; attempts++ {
			j := rng.Intn(users)
			if j != i {
				befriend(i, j)
			}
		}
	}
	// Churn with the requested long-run availability: MTTF/(MTTF+MTTR)=a.
	// Short cycles relative to the measurement window keep the question
	// honest: was the friend reachable (directly or via a mutual friend)
	// within 15 minutes of the post?
	mttf := 10 * time.Minute
	if availability < 1 {
		mttr := time.Duration(float64(mttf) * (1 - availability) / availability)
		for _, p := range peers {
			simnet.Churn{MTTF: mttf, MTTR: mttr}.Apply(p.Node())
		}
	}
	// Warm up churn, then the author (node 0, forced up) posts.
	nw.Run(30 * time.Minute)
	author := peers[0]
	author.Node().Restart() // ensure up
	post := author.Publish("wall", []byte("to my friends"))
	nw.Run(nw.Now() + 15*time.Minute)

	friends := 0
	holding := 0
	for i, p := range peers {
		if i == 0 || !p.IsFriend(author.User()) {
			continue
		}
		friends++
		if p.Has(post.ID) {
			holding++
		}
	}
	if friends == 0 {
		return 0
	}
	return float64(holding) / float64(friends)
}

// metadataSizes is X4b's federation size: full scale, then tiny.
var metadataSizes = [2]int{10, 3}

// metadataExposure renders the §3.2 metadata-exposure comparison for a
// federation of the given size (X4b); it draws nothing from the seed.
func metadataExposure(_ Env, servers int) *Table {
	t := &Table{Headers: []string{"Model", "Operator Observers", "Body Visible To Operators", "Note"}}
	for _, e := range groupcomm.Exposures() {
		t.Add(e.Model, e.ObserverCount(servers), e.BodyVisible, e.Note)
	}
	return t
}
