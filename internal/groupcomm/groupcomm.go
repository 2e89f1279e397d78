// Package groupcomm implements the group-communication systems of the
// paper's §3.2 — group messaging and online social networking — under four
// deployment models that span the centralized↔democratized axis:
//
//   - Centralized: one platform server (the feudal baseline: Twitter,
//     Reddit). Highest convenience and global moderation; total outage and
//     total metadata exposure when the operator fails or misbehaves.
//   - FederatedHome: OStatus/Mastodon/GNU-social style. Each user homes on
//     an instance; posts push to followers' instances. "OStatus-based
//     applications are bottlenecked by single servers that can cause
//     entire instances to be inaccessible if they fail."
//   - FederatedReplicated: Matrix/Riot style. Room history replicates
//     across every participating server via gossip; any surviving server
//     can serve reads. "Matrix provides high availability by replicating
//     data over the entire network" — while "metadata is still accessible
//     and readable by the Matrix server that stores it."
//   - SocialP2P: the socially-aware P2P model (SocialPeer). No servers;
//     data flows only along socially trusted edges, pushed to friends and
//     repaired by friend-to-friend anti-entropy. Best privacy,
//     availability limited by friends' uptime. The double ratchet
//     (ratchet.go) encrypts the socialnet example's direct message.
//
// All four expose posting and reading so experiment X3/X4 can measure
// deliverability under failure, and each reports its per-message metadata
// exposure (which third parties learn who talked to whom).
package groupcomm

import (
	"strings"
	"time"

	"repro/internal/cryptoutil"
)

// UserID names a user. User identity/key management is orthogonal here;
// the naming and identity packages provide it for the full system.
type UserID string

// Post is one message in a room or timeline. Body may be plaintext or
// ratchet ciphertext; the transport does not care.
type Post struct {
	ID     cryptoutil.Hash
	Room   string
	Author UserID
	Body   []byte
	SentAt time.Duration
}

// NewPost builds a post with a content-derived unique ID.
func NewPost(room string, author UserID, body []byte, now time.Duration) Post {
	var ts [8]byte
	for i := 0; i < 8; i++ {
		ts[i] = byte(uint64(now) >> (8 * i))
	}
	return Post{
		ID:     cryptoutil.SumHashes([]byte(room), []byte(author), body, ts[:]),
		Room:   room,
		Author: author,
		Body:   body,
		SentAt: now,
	}
}

// WireSize returns the simulated size of the post in bytes.
func (p Post) WireSize() int { return 64 + len(p.Room) + len(p.Author) + len(p.Body) }

// ModerationPolicy is the abuse-prevention hook (§3.2 "Abuse Prevention").
// Centralized platforms apply one policy globally; federated instances each
// apply their own; P2P users can only filter what they themselves see.
type ModerationPolicy struct {
	BannedWords []string
	BannedUsers map[UserID]bool
}

// Allows reports whether the policy admits the post.
func (mp *ModerationPolicy) Allows(p Post) bool {
	if mp == nil {
		return true
	}
	if mp.BannedUsers[p.Author] {
		return false
	}
	body := strings.ToLower(string(p.Body))
	for _, w := range mp.BannedWords {
		if w != "" && strings.Contains(body, strings.ToLower(w)) {
			return false
		}
	}
	return true
}

// MetadataExposure describes who, besides the intended readers, observes a
// message's metadata (sender, recipient/room, timing) under each model —
// §3.2's privacy axis quantified.
type MetadataExposure struct {
	Model string
	// ObserverCount is how many non-participant operator entities see the
	// metadata of a typical message (for federated-replicated, per room
	// with s participating servers, this is s).
	ObserverCount func(servers int) int
	// BodyVisible reports whether those observers also see plaintext
	// bodies when users do not use end-to-end encryption.
	BodyVisible bool
	Note        string
}

// Exposures returns the metadata-exposure assessment for all four models.
func Exposures() []MetadataExposure {
	return []MetadataExposure{
		{
			Model:         "centralized",
			ObserverCount: func(servers int) int { return 1 },
			BodyVisible:   true,
			Note:          "platform operator sees everything; monetization of metadata is the business model",
		},
		{
			Model:         "federated-home",
			ObserverCount: func(servers int) int { return 2 },
			BodyVisible:   true,
			Note:          "author's and reader's instances see bodies and metadata; OStatus has no intrinsic privacy mechanism",
		},
		{
			Model: "federated-replicated",
			ObserverCount: func(servers int) int {
				if servers < 1 {
					return 1
				}
				return servers
			},
			BodyVisible: false, // E2E for bodies, but...
			Note:        "bodies can be end-to-end encrypted, yet every participating server reads metadata (the Matrix caveat)",
		},
		{
			Model:         "social-p2p",
			ObserverCount: func(servers int) int { return 0 },
			BodyVisible:   false,
			Note:          "no operator exists; only socially trusted peers handle the data",
		},
	}
}
