// Package repro is a repo-scale reproduction of "The Barriers to
// Overthrowing Internet Feudalism" (Liu, Tariq, Chen, Raghavan;
// HotNets-XVI, 2017): a stdlib-only Go implementation of every system
// class the paper surveys — blockchain naming, four group-communication
// deployment models, incentivized decentralized storage, and the hostless
// web — over a deterministic discrete-event network simulator, together
// with harnesses that regenerate the paper's three tables and quantify its
// qualitative claims.
//
// The root package holds the cross-subsystem integration tests, the scale
// and shard-determinism tests, and the allocation gates. The
// implementation lives under internal/ — see DESIGN.md for the system
// inventory — and runnable entry points under cmd/ (cmd/feudalism runs
// every experiment; see EXPERIMENTS.md) and examples/.
package repro
