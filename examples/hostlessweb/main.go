// Hostlessweb: the §3.4 scenario — a website published with no server
// (ZeroNet/Beaker style). The author signs a content-addressed bundle whose
// address is her key fingerprint, visitors resolve it through the DHT and a
// tracker, seed it after visiting, and keep it alive after the author goes
// offline. A signed update propagates; a forged one is rejected; a fork is
// created and merged back (Beaker's git-for-websites flow).
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/dht"
	"repro/internal/overload"
	"repro/internal/simnet"
	"repro/internal/webapp"
)

func main() {
	nw := simnet.New(31)
	rng := rand.New(rand.NewSource(31))
	tracker := webapp.NewTracker(nw.AddNode(), overload.Config{})

	// Everyone — author included — is on a home broadband link.
	newPeer := func() *webapp.Peer {
		node := nw.AddNodeWithProfile(simnet.HomeBroadbandProfile())
		d := dht.NewPeer(node, dht.Key{}, dht.Config{})
		return webapp.NewPeer(node, d, tracker.Node().ID(), 30*time.Second, webapp.PeerConfig{})
	}
	author := newPeer()
	visitors := make([]*webapp.Peer, 8)
	for i := range visitors {
		visitors[i] = newPeer()
		visitors[i].DHT().Bootstrap(author.DHT().Contact(), nil)
	}
	nw.Run(time.Minute)

	fmt.Println("== 1. author publishes a site; its address is her key fingerprint")
	owner, err := cryptoutil.GenerateKeyPair(rng)
	if err != nil {
		log.Fatal(err)
	}
	files := map[string][]byte{
		"index.html": []byte("<h1>no servers were harmed</h1>"),
		"app.js":     []byte("render('v1')"),
	}
	var site cryptoutil.Hash
	author.Publish(owner, 1, files, cryptoutil.Hash{}, func(m *webapp.Manifest) { site = m.Site })
	nw.Run(nw.Now() + time.Minute)
	fmt.Printf("   site address: %s\n", site.Short())

	fmt.Println("\n== 2. visitors fetch, verify signatures, and become seeders")
	for i, v := range visitors[:4] {
		v.Visit(site, func(got map[string][]byte, err error) {
			if err != nil {
				log.Fatalf("visitor %d: %v", i, err)
			}
		})
		nw.Run(nw.Now() + time.Minute)
	}
	fmt.Printf("   tracker now lists %d seeders\n", tracker.NumSeeders(site))

	fmt.Println("\n== 3. author ships a signed update (v2)")
	files["app.js"] = []byte("render('v2')")
	author.Publish(owner, 2, files, cryptoutil.Hash{}, nil)
	nw.Run(nw.Now() + time.Minute)
	updated := false
	visitors[0].Refresh(site, func(u bool, err error) { updated = u })
	nw.Run(nw.Now() + time.Minute)
	content, _ := visitors[0].FileContent(site, "app.js")
	fmt.Printf("   visitor refreshed=%v, app.js=%q\n", updated, content)

	fmt.Println("\n== 4. a forged update (wrong key) is rejected by every verifier")
	mallory, _ := cryptoutil.GenerateKeyPair(rng)
	forged, _ := webapp.SignManifest(mallory, 9, map[string][]byte{"index.html": []byte("pwned")}, cryptoutil.Hash{})
	forged.Site = site
	visitors[3].DHT().Put(dhtManifestKey(site), forged.Encode(), nil)
	nw.Run(nw.Now() + time.Minute)
	refreshErr := error(nil)
	visitors[0].Refresh(site, func(u bool, err error) { refreshErr = err })
	nw.Run(nw.Now() + time.Minute)
	fmt.Printf("   refresh against forged manifest: %v\n", refreshErr)

	// Repair the DHT record with the legitimate v2 manifest before going on.
	if m, ok := author.Manifest(site); ok {
		author.DHT().Put(dhtManifestKey(site), m.Encode(), nil)
	}
	nw.Run(nw.Now() + time.Minute)

	fmt.Println("\n== 5. author goes offline; the site lives on its visitors")
	author.Node().Crash()
	ok := false
	visitors[5].Visit(site, func(got map[string][]byte, err error) { ok = err == nil })
	nw.Run(nw.Now() + time.Minute)
	fmt.Printf("   fresh visit with author offline: success=%v\n", ok)

	fmt.Println("\n== 6. fork and merge (Beaker flow)")
	forker, _ := cryptoutil.GenerateKeyPair(rng)
	var forkSite cryptoutil.Hash
	visitors[0].Fork(site, forker, func(f map[string][]byte) {
		f["app.js"] = []byte("render('community edition')")
	}, func(m *webapp.Manifest, err error) {
		if err != nil {
			log.Fatal(err)
		}
		forkSite = m.Site
	})
	nw.Run(nw.Now() + time.Minute)
	fmt.Printf("   fork published at %s (provenance → %s)\n", forkSite.Short(), site.Short())

	author.Node().Restart()
	author.Visit(forkSite, func(map[string][]byte, error) {})
	nw.Run(nw.Now() + time.Minute)
	author.Merge(owner, forkSite, func(m *webapp.Manifest, err error) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("   author merged fork into v%d of the original site\n", m.Version)
	})
	nw.Run(nw.Now() + time.Minute)

	if m, ok := author.Manifest(site); ok {
		fmt.Printf("\n== final site v%d, %d files, %d bytes, %d seeders\n",
			m.Version, len(m.Files), m.TotalSize(), tracker.NumSeeders(site))
	}
}

// dhtManifestKey mirrors webapp's internal manifest key derivation for the
// forgery demonstration.
func dhtManifestKey(site cryptoutil.Hash) cryptoutil.Hash {
	return cryptoutil.SumHashes([]byte("webapp-manifest"), site[:])
}
