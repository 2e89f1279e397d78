// Package webapp implements the hostless web architecture of the paper's
// §3.4 (ZeroNet, Beaker, freedom.js): websites are signed, versioned,
// content-addressed bundles published under the author's public key. There
// is no origin server — a site's address is its author's key fingerprint
// ("the public key is the new site address which can be looked up on
// trackers or DHTs"), manifests are resolved through the Kademlia DHT,
// file blobs are fetched from whoever seeds them, and every visitor who
// fetches a site becomes a seeder. Updates are newer signed manifests;
// forking and merging (Beaker's Git-inspired openness) create and absorb
// derived sites.
package webapp

import (
	"crypto/ed25519"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/cryptoutil"
)

// FileEntry names one file in a site bundle.
type FileEntry struct {
	Path string          `json:"path"`
	ID   cryptoutil.Hash `json:"id"`
	Size int             `json:"size"`
}

// Manifest is the signed root of a site version. Address = fingerprint of
// OwnerPub; every file is referenced by content address, so any seeder can
// serve blobs without being trusted.
type Manifest struct {
	Site     cryptoutil.Hash   `json:"site"`
	OwnerPub ed25519.PublicKey `json:"owner_pub"`
	Version  uint64            `json:"version"`
	Files    []FileEntry       `json:"files"`
	// ForkOf records the site this one was forked from (zero if original).
	ForkOf cryptoutil.Hash `json:"fork_of,omitempty"`
	Sig    []byte          `json:"sig"`
}

func (m *Manifest) signingBytes() []byte {
	clone := *m
	clone.Sig = nil
	b, err := json.Marshal(&clone)
	if err != nil {
		panic("webapp: manifest marshal cannot fail: " + err.Error())
	}
	return b
}

// Encode serializes the manifest (e.g. for DHT storage).
func (m *Manifest) Encode() []byte {
	b, err := json.Marshal(m)
	if err != nil {
		panic("webapp: manifest marshal cannot fail: " + err.Error())
	}
	return b
}

// DecodeManifest parses manifest bytes.
func DecodeManifest(b []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("webapp: decode manifest: %w", err)
	}
	return &m, nil
}

// Verify checks the owner binding and signature. Every visitor runs this
// before trusting a manifest — "every file of and update about the web
// application can be securely verified by verifying the corresponding
// signature."
func (m *Manifest) Verify() bool {
	if cryptoutil.PublicFingerprint(m.OwnerPub) != m.Site {
		return false
	}
	return cryptoutil.Verify(m.OwnerPub, m.signingBytes(), m.Sig)
}

// File returns the entry for a path.
func (m *Manifest) File(path string) (FileEntry, bool) {
	for _, f := range m.Files {
		if f.Path == path {
			return f, true
		}
	}
	return FileEntry{}, false
}

// TotalSize returns the bundle's payload size in bytes.
func (m *Manifest) TotalSize() int {
	total := 0
	for _, f := range m.Files {
		total += f.Size
	}
	return total
}

// SignManifest builds and signs a manifest over the given files, returning
// it together with the content-addressed blob map.
func SignManifest(owner *cryptoutil.KeyPair, version uint64, files map[string][]byte, forkOf cryptoutil.Hash) (*Manifest, map[cryptoutil.Hash][]byte) {
	paths := make([]string, 0, len(files))
	for p := range files { //determinism:ok sorted below
		paths = append(paths, p)
	}
	sort.Strings(paths)
	m := &Manifest{
		Site:     owner.Fingerprint(),
		OwnerPub: owner.Public,
		Version:  version,
		ForkOf:   forkOf,
	}
	blobs := map[cryptoutil.Hash][]byte{}
	for _, p := range paths {
		data := files[p]
		id := cryptoutil.SumHash(data)
		m.Files = append(m.Files, FileEntry{Path: p, ID: id, Size: len(data)})
		blobs[id] = data
	}
	m.Sig = owner.Sign(m.signingBytes())
	return m, blobs
}

// manifestKey is the DHT key a site's current manifest lives under.
func manifestKey(site cryptoutil.Hash) cryptoutil.Hash {
	return cryptoutil.SumHashes([]byte("webapp-manifest"), site[:])
}
