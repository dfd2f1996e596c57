// Package fleet is the fault-tolerant sweep orchestration layer: a
// coordinator shards content-addressed jobs (internal/resultstore keys)
// into leased batches and hands them to worker processes, which execute
// them with the real simulator and stream results back append-only, one
// JSON line per completed run, heartbeating while they work.
//
// Robustness contract (the reason this package exists):
//
//   - any worker may die at any instruction — kill -9 included. Its lease
//     expires on missed heartbeats, its unfinished jobs are reassigned with
//     capped exponential backoff, and a fresh worker is spawned in its place
//   - re-execution is idempotent by construction: a job is its run hash,
//     equal hashes produce bit-identical results, and the store's Put is
//     an atomic no-op when a valid entry already exists — so double
//     delivery (the first owner died after writing, or a slow worker
//     raced its own replacement) merges cleanly
//   - results are made durable (store.PutEntry, atomic rename) before the
//     waiting engine is unblocked, so a coordinator killed mid-merge loses
//     nothing: the next run replays the store and re-simulates only what
//     was genuinely never delivered
//   - the coordinator merges results deterministically by key, so final
//     stdout is byte-identical to a serial local run at any worker count,
//     with any number of worker crashes
//
// The wire format is line-oriented versioned JSON in both directions; a
// result line carries a resultstore.Entry, the same record the store files
// on disk. Every complete line ends in a newline, which is what lets a torn
// final line from a dying worker be dropped without ambiguity.
package fleet

import "gpushield/internal/resultstore"

// Shard is one leased batch of jobs. The coordinator tells the worker how
// often to heartbeat; the lease it holds against those heartbeats is the
// coordinator's own business.
type Shard struct {
	ID          int               `json:"id"`
	HeartbeatMS int64             `json:"heartbeat_ms"`
	Jobs        []resultstore.Key `json:"jobs"`
}

// coordMsg is one coordinator→worker line.
type coordMsg struct {
	T     string `json:"t"` // "shard" | "exit"
	Shard *Shard `json:"shard,omitempty"`
}

// workerMsg is one worker→coordinator line. "res" carries one completed
// run in the store's entry format; "hb" proves liveness mid-shard; "done"
// returns the lease.
type workerMsg struct {
	T     string             `json:"t"` // "hb" | "res" | "done"
	Shard int                `json:"shard"`
	Rec   *resultstore.Entry `json:"rec,omitempty"`
}
