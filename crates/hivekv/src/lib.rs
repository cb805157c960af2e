//! hive-kv: a replicated key-value serving workload over Hive cells.
//!
//! The paper's end-to-end experiments drive a batch workload (a parallel
//! make) through hardware faults; this crate adds a *service* workload with
//! user-visible SLOs. Each cell's boot node runs a KV shard serving an
//! open-loop stream of GET/PUT requests from a modeled client population
//! (10^5–10^7 clients, Zipfian keys, fixed arrival schedule derived from
//! the run seed). The key space is split into chunks placed on cells by a
//! deterministic ring: chunk `c` is homed on cell `c mod n_cells` with
//! replicas on the next cells around the ring. A PUT writes every replica;
//! a GET reads the primary.
//!
//! When a cell is lost to a hardware fault, the existing failure
//! dissemination and recovery machinery (flash-core) detects it and
//! recovers the machine; this crate's directory then fails chunks over to
//! surviving replicas and re-replicates onto live cells, with a modeled
//! copy delay during which a second fault can still lose data. Requests to
//! chunks unaffected by the fault must keep completing (the containment
//! claim, restated for a service: fault isolation is visible to *users* as
//! bounded error fractions and latency, not just to batch jobs as completed
//! compiles).
//!
//! The experiment harness ([`prepare_kv_serving`] / [`PreparedKv`] /
//! [`finish_kv_serving`]) runs on the shared `flash_core::drive` loop, like
//! the hive parallel make, including warm-checkpoint/fork support with
//! bit-identical trace hashes.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod experiment;
mod placement;
mod shard;
mod zipf;

pub use config::{KvConfig, KvConfigError};
pub use experiment::{
    finish_kv_serving, prepare_kv_serving, run_kv_serving, KvCheck, KvOutcome, KvStats, PreparedKv,
};
pub use placement::{ChunkDirectory, ChunkPlacement, RepairSummary};
pub use shard::{KvShard, ShardStats};
pub use zipf::{scramble_rank, ZipfSampler};
