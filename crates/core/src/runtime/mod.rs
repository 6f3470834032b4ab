//! The rank model: vertex shards, partial-sum exchange and partial
//! retention.
//!
//! The paper's headline system (Sections 5–7) is *distributed*: the data
//! graph is block-partitioned over MPI ranks, each rank runs the colorful
//! counting dynamic program on the paths rooted in its own vertex block, and
//! the per-rank partial-sum (PS) tables are combined in a batched alltoall.
//! This module holds the pieces of that rank model, realized on a
//! shared-memory machine; the execution loop that drives them is
//! [`driver::execute`](crate::driver), which runs every count, serial
//! included, as a sharded one:
//!
//! * [`shard`] — the vertex shards (reusing `sgc_graph::BlockPartition`, the
//!   same 1D block distribution the paper uses),
//! * [`exchange`] — the explicit combination step that sums the per-shard
//!   partial projection tables into each block's full table, mirroring the
//!   paper's alltoall of partial sums, and recording per-shard exchange
//!   volume,
//! * [`incremental`] — retention of the per-shard partials and their replay
//!   after an edge delta, for versioned graphs.
//!
//! The partitioning invariant that makes this exact: a path-table entry's
//! `start` vertex is fixed at seeding time and never changes through any
//! join, and the final path merge only pairs entries with equal starts. So
//! restricting each shard to the paths *starting* in its vertex block
//! partitions every block's table — and therefore the final count — into
//! disjoint per-shard parts whose `u64` sums are bit-identical to the
//! one-shard result, for any shard count. `CountRequest::sharded` is the
//! public entry point; `tests/sharded.rs` and the property suite enforce the
//! sharded ≡ serial contract.

pub mod exchange;
pub mod incremental;
pub mod shard;

pub use incremental::{count_incremental, dirty_shards, IncrementalOutcome, TrialPartials};
pub use shard::{ShardPlan, VertexShard};
