package webapp

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/dht"
	"repro/internal/simnet"
)

func key(t testing.TB, seed int64) *cryptoutil.KeyPair {
	t.Helper()
	kp, err := cryptoutil.GenerateKeyPair(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return kp
}

func sampleFiles() map[string][]byte {
	return map[string][]byte{
		"index.html": []byte("<h1>hostless</h1>"),
		"app.js":     []byte("console.log('no server')"),
		"style.css":  []byte("body{margin:0}"),
	}
}

func TestManifestSignVerify(t *testing.T) {
	owner := key(t, 1)
	m, blobs := SignManifest(owner, 1, sampleFiles(), cryptoutil.Hash{})
	if !m.Verify() {
		t.Fatal("fresh manifest fails verification")
	}
	if len(m.Files) != 3 || len(blobs) != 3 {
		t.Fatalf("files = %d blobs = %d", len(m.Files), len(blobs))
	}
	if m.TotalSize() <= 0 {
		t.Error("total size")
	}
	if _, ok := m.File("index.html"); !ok {
		t.Error("File lookup failed")
	}
	if _, ok := m.File("nope"); ok {
		t.Error("ghost file found")
	}
	// Round trip through encoding.
	got, err := DecodeManifest(m.Encode())
	if err != nil || !got.Verify() {
		t.Fatalf("decode: %v", err)
	}
	// Tampering breaks it.
	m.Files[0].ID = cryptoutil.SumHash([]byte("evil"))
	if m.Verify() {
		t.Error("tampered manifest verified")
	}
	// Wrong owner binding breaks it.
	m2, _ := SignManifest(owner, 1, sampleFiles(), cryptoutil.Hash{})
	m2.Site = cryptoutil.SumHash([]byte("other"))
	if m2.Verify() {
		t.Error("manifest with mismatched site address verified")
	}
	if _, err := DecodeManifest([]byte("junk")); err == nil {
		t.Error("junk manifest accepted")
	}
}

func TestManifestDeterministicFileOrder(t *testing.T) {
	owner := key(t, 2)
	a, _ := SignManifest(owner, 1, sampleFiles(), cryptoutil.Hash{})
	b, _ := SignManifest(owner, 1, sampleFiles(), cryptoutil.Hash{})
	if !bytes.Equal(a.signingBytes(), b.signingBytes()) {
		t.Error("same files produce different signing bytes (map-order leak)")
	}
}

// webWorld builds a tracker, a DHT, and n web peers.
func webWorld(t testing.TB, seed int64, n int) (*simnet.Network, *Tracker, []*Peer) {
	t.Helper()
	nw := simnet.New(seed)
	tracker := NewTracker(nw.AddNode())
	peers := make([]*Peer, n)
	dhts := make([]*dht.Peer, n)
	for i := 0; i < n; i++ {
		node := nw.AddNode()
		dhts[i] = dht.NewPeer(node, dht.Key{}, dht.Config{})
		peers[i] = NewPeer(node, dhts[i], tracker.Node().ID(), 10*time.Second, PeerConfig{})
	}
	for i := 1; i < n; i++ {
		i := i
		nw.After(time.Duration(i)*50*time.Millisecond, func() {
			dhts[i].Bootstrap(dhts[0].Contact(), nil)
		})
	}
	nw.Run(time.Duration(n) * 100 * time.Millisecond)
	return nw, tracker, peers
}

func TestPublishVisitVerifySeed(t *testing.T) {
	nw, tracker, peers := webWorld(t, 3, 8)
	owner := key(t, 4)
	var published *Manifest
	peers[0].Publish(owner, 1, sampleFiles(), cryptoutil.Hash{}, func(m *Manifest) { published = m })
	nw.Run(nw.Now() + time.Minute)
	if published == nil {
		t.Fatal("publish did not complete")
	}
	site := published.Site

	// First visitor fetches from the author.
	var got map[string][]byte
	var verr error
	peers[1].Visit(site, func(files map[string][]byte, err error) { got, verr = files, err })
	nw.Run(nw.Now() + time.Minute)
	if verr != nil {
		t.Fatal(verr)
	}
	if !bytes.Equal(got["index.html"], sampleFiles()["index.html"]) {
		t.Error("file content mismatch")
	}
	if tracker.NumSeeders(site) < 2 {
		t.Errorf("seeders = %d, want ≥2 (visitor should seed)", tracker.NumSeeders(site))
	}

	// Author goes offline; the site survives because the visitor seeds it.
	peers[0].Node().Crash()
	var got2 map[string][]byte
	var verr2 error
	peers[2].Visit(site, func(files map[string][]byte, err error) { got2, verr2 = files, err })
	nw.Run(nw.Now() + time.Minute)
	if verr2 != nil {
		t.Fatalf("visit after author death: %v", verr2)
	}
	if !bytes.Equal(got2["app.js"], sampleFiles()["app.js"]) {
		t.Error("content after author death mismatch")
	}
	if content, ok := peers[2].FileContent(site, "style.css"); !ok || len(content) == 0 {
		t.Error("FileContent lookup failed")
	}
}

func TestVisitUnknownSite(t *testing.T) {
	nw, _, peers := webWorld(t, 5, 4)
	var verr error
	peers[1].Visit(cryptoutil.SumHash([]byte("ghost")), func(files map[string][]byte, err error) { verr = err })
	nw.Run(nw.Now() + time.Minute)
	if verr == nil {
		t.Error("unknown site visit succeeded")
	}
}

func TestSignedUpdatePropagates(t *testing.T) {
	nw, _, peers := webWorld(t, 6, 5)
	owner := key(t, 7)
	files := sampleFiles()
	var site cryptoutil.Hash
	peers[0].Publish(owner, 1, files, cryptoutil.Hash{}, func(m *Manifest) { site = m.Site })
	nw.Run(nw.Now() + time.Minute)
	peers[1].Visit(site, func(map[string][]byte, error) {})
	nw.Run(nw.Now() + time.Minute)

	// Owner ships v2 with a changed file.
	files["index.html"] = []byte("<h1>v2</h1>")
	peers[0].Publish(owner, 2, files, cryptoutil.Hash{}, nil)
	nw.Run(nw.Now() + time.Minute)

	var updated bool
	var uerr error
	peers[1].Refresh(site, func(u bool, err error) { updated, uerr = u, err })
	nw.Run(nw.Now() + time.Minute)
	if uerr != nil {
		t.Fatal(uerr)
	}
	if !updated {
		t.Fatal("refresh found no update")
	}
	if content, _ := peers[1].FileContent(site, "index.html"); string(content) != "<h1>v2</h1>" {
		t.Errorf("content = %q", content)
	}
	// Refresh again: no-op.
	peers[1].Refresh(site, func(u bool, err error) { updated = u })
	nw.Run(nw.Now() + time.Minute)
	if updated {
		t.Error("second refresh should be a no-op")
	}
	// Refresh of unfollowed site errors.
	peers[2].Refresh(site, func(u bool, err error) { uerr = err })
	nw.Run(nw.Now() + time.Minute)
	if uerr == nil {
		t.Error("refresh of unfollowed site should error")
	}
}

func TestForgedUpdateRejected(t *testing.T) {
	nw, _, peers := webWorld(t, 8, 5)
	owner, mallory := key(t, 9), key(t, 10)
	var site cryptoutil.Hash
	peers[0].Publish(owner, 1, sampleFiles(), cryptoutil.Hash{}, func(m *Manifest) { site = m.Site })
	nw.Run(nw.Now() + time.Minute)
	peers[1].Visit(site, func(map[string][]byte, error) {})
	nw.Run(nw.Now() + time.Minute)

	// Mallory crafts a "v3" manifest for the victim's site address signed
	// with her own key and plants it in the DHT.
	forged, _ := SignManifest(mallory, 3, map[string][]byte{"index.html": []byte("pwned")}, cryptoutil.Hash{})
	forged.Site = site // claim the victim's address
	peers[2].DHT().Put(manifestKey(site), forged.Encode(), nil)
	nw.Run(nw.Now() + time.Minute)

	var uerr error
	var updated bool
	peers[1].Refresh(site, func(u bool, err error) { updated, uerr = u, err })
	nw.Run(nw.Now() + time.Minute)
	if updated {
		t.Fatal("forged manifest applied")
	}
	if uerr == nil {
		t.Error("forged manifest should surface as an error")
	}
	if content, _ := peers[1].FileContent(site, "index.html"); string(content) == "pwned" {
		t.Fatal("content replaced by forgery")
	}
}

func TestForkAndMerge(t *testing.T) {
	nw, _, peers := webWorld(t, 11, 6)
	owner, forker := key(t, 12), key(t, 13)
	var site cryptoutil.Hash
	peers[0].Publish(owner, 1, sampleFiles(), cryptoutil.Hash{}, func(m *Manifest) { site = m.Site })
	nw.Run(nw.Now() + time.Minute)

	// Forker visits then forks with a modification.
	peers[1].Visit(site, func(map[string][]byte, error) {})
	nw.Run(nw.Now() + time.Minute)
	var forkM *Manifest
	var ferr error
	peers[1].Fork(site, forker, func(files map[string][]byte) {
		files["app.js"] = []byte("console.log('forked!')")
		files["new.txt"] = []byte("added in fork")
	}, func(m *Manifest, err error) { forkM, ferr = m, err })
	nw.Run(nw.Now() + time.Minute)
	if ferr != nil {
		t.Fatal(ferr)
	}
	if forkM.ForkOf != site {
		t.Error("fork provenance missing")
	}

	// A third peer visits the fork.
	var forkFiles map[string][]byte
	peers[2].Visit(forkM.Site, func(files map[string][]byte, err error) { forkFiles = files })
	nw.Run(nw.Now() + time.Minute)
	if string(forkFiles["app.js"]) != "console.log('forked!')" {
		t.Error("fork content wrong")
	}

	// The original owner (on peer 0) visits the fork and merges it.
	peers[0].Visit(forkM.Site, func(map[string][]byte, error) {})
	nw.Run(nw.Now() + time.Minute)
	var merged *Manifest
	var merr error
	peers[0].Merge(owner, forkM.Site, func(m *Manifest, err error) { merged, merr = m, err })
	nw.Run(nw.Now() + time.Minute)
	if merr != nil {
		t.Fatal(merr)
	}
	if merged.Version != 2 || merged.Site != site {
		t.Errorf("merged version=%d site=%s", merged.Version, merged.Site.Short())
	}
	if _, ok := merged.File("new.txt"); !ok {
		t.Error("merged manifest missing fork's file")
	}

	// Fork of an unvisited site fails.
	peers[3].Fork(cryptoutil.SumHash([]byte("ghost")), forker, nil, func(m *Manifest, err error) { merr = err })
	nw.Run(nw.Now() + time.Minute)
	if merr == nil {
		t.Error("fork of unvisited site should fail")
	}
}

func TestSeederScalingDistributesLoad(t *testing.T) {
	nw, _, peers := webWorld(t, 14, 12)
	owner := key(t, 15)
	var site cryptoutil.Hash
	peers[0].Publish(owner, 1, sampleFiles(), cryptoutil.Hash{}, func(m *Manifest) { site = m.Site })
	nw.Run(nw.Now() + time.Minute)

	// Visitors arrive one after another; later visitors can use earlier
	// ones as seeders.
	for i := 1; i < 12; i++ {
		var verr error
		peers[i].Visit(site, func(files map[string][]byte, err error) { verr = err })
		nw.Run(nw.Now() + time.Minute)
		if verr != nil {
			t.Fatalf("visitor %d: %v", i, verr)
		}
	}
	// Load must be spread: the author should not have served every blob to
	// every visitor (11 visitors × 3 files = 33 blob fetches total).
	authorServes := peers[0].BlobServes
	total := 0
	for _, p := range peers {
		total += p.BlobServes
	}
	if authorServes == total {
		t.Errorf("author served all %d blobs; no visitor seeding happened", total)
	}
	if total < 33 {
		t.Errorf("total serves = %d, want ≥33", total)
	}
}

func TestTrackerIdempotentAnnounce(t *testing.T) {
	nw := simnet.New(16)
	tracker := NewTracker(nw.AddNode())
	node := nw.AddNode()
	rpc := simnet.NewRPCNode(node)
	site := cryptoutil.SumHash([]byte("s"))
	for i := 0; i < 3; i++ {
		rpc.Call(tracker.Node().ID(), methodAnnounce, announceReq{Site: site, Seeder: node.ID()}, 72, time.Minute, func(any, error) {})
	}
	nw.RunAll()
	if tracker.NumSeeders(site) != 1 {
		t.Errorf("seeders = %d, want 1", tracker.NumSeeders(site))
	}
}

func BenchmarkVisit(b *testing.B) {
	nw, _, peers := webWorld(b, 17, 10)
	owner := key(b, 18)
	var site cryptoutil.Hash
	peers[0].Publish(owner, 1, sampleFiles(), cryptoutil.Hash{}, func(m *Manifest) { site = m.Site })
	nw.Run(nw.Now() + time.Minute)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := peers[1+i%9]
		ok := false
		p.Visit(site, func(files map[string][]byte, err error) { ok = err == nil })
		nw.Run(nw.Now() + time.Minute)
		if !ok {
			b.Fatal(fmt.Sprintf("visit %d failed", i))
		}
	}
}

// TestVisitFallsBackToSwarmManifest kills the DHT record (by isolating the
// DHT value holders) while seeders survive; Visit must still succeed via
// the seeder manifest path, because manifests are self-verifying.
func TestVisitFallsBackToSwarmManifest(t *testing.T) {
	nw := simnet.New(41)
	tracker := NewTracker(nw.AddNode())
	// Author peer with its own private DHT (not shared with the visitor),
	// so the visitor's DHT lookup always misses.
	authorNode := nw.AddNode()
	authorDHT := dht.NewPeer(authorNode, dht.Key{}, dht.Config{})
	author := NewPeer(authorNode, authorDHT, tracker.Node().ID(), 5*time.Second, PeerConfig{})

	visitorNode := nw.AddNode()
	visitorDHT := dht.NewPeer(visitorNode, dht.Key{}, dht.Config{})
	visitor := NewPeer(visitorNode, visitorDHT, tracker.Node().ID(), 5*time.Second, PeerConfig{})

	owner := key(t, 42)
	var site cryptoutil.Hash
	author.Publish(owner, 1, sampleFiles(), cryptoutil.Hash{}, func(m *Manifest) { site = m.Site })
	nw.Run(time.Minute)

	var files map[string][]byte
	var verr error
	visitor.Visit(site, func(f map[string][]byte, err error) { files, verr = f, err })
	nw.Run(nw.Now() + time.Minute)
	if verr != nil {
		t.Fatalf("swarm-manifest fallback failed: %v", verr)
	}
	if string(files["index.html"]) != string(sampleFiles()["index.html"]) {
		t.Error("content mismatch via fallback")
	}
	if m, ok := visitor.Manifest(site); !ok || m.Version != 1 {
		t.Error("visitor did not adopt the manifest")
	}
}

// TestVisitFallbackRejectsForgedSeederManifest plants a forged manifest on
// a malicious seeder: the fallback path must skip it (signature check) and
// fail cleanly when no honest seeder exists.
func TestVisitFallbackRejectsForgedSeederManifest(t *testing.T) {
	nw := simnet.New(43)
	tracker := NewTracker(nw.AddNode())
	mk := func() *Peer {
		node := nw.AddNode()
		return NewPeer(node, dht.NewPeer(node, dht.Key{}, dht.Config{}), tracker.Node().ID(), 5*time.Second, PeerConfig{})
	}
	mallorySeeder := mk()
	visitor := mk()

	owner, mallory := key(t, 44), key(t, 45)
	site := owner.Fingerprint()
	// Mallory announces herself as a seeder of the victim's site and serves
	// a forged manifest for it.
	forged, blobs := SignManifest(mallory, 7, map[string][]byte{"index.html": []byte("pwned")}, cryptoutil.Hash{})
	forged.Site = site
	mallorySeeder.adopt(forged, blobs)
	mallorySeeder.announce(site)
	nw.Run(time.Minute)

	verr := error(nil)
	visitor.Visit(site, func(f map[string][]byte, err error) { verr = err })
	nw.Run(nw.Now() + time.Minute)
	if verr == nil {
		t.Fatal("forged seeder manifest accepted")
	}
}
