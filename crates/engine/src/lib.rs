//! # sgc-engine — tables, joins and the shared-memory engine
//!
//! The paper's "engine" layer (Section 7) stores the data graph and the
//! projection tables in a distributed fashion and exposes join routines to
//! the plan solver. This crate provides the shared-memory equivalent:
//!
//! * [`Signature`] — color sets as two `u64` bitset words with the
//!   disjointness / containment operations used by every join,
//! * [`hash`] — an FxHash-style hasher and the [`FastMap`] alias used for
//!   all tables (projection-table lookups dominate runtime, so SipHash
//!   would be a measurable tax),
//! * [`table`] — unary / binary projection tables, the scalar root table and
//!   the path tables (with up to two extra tracked boundary fields) used
//!   while solving cycles,
//! * [`columnar`] — the same logical tables as structure-of-arrays column
//!   buffers with an open-addressing row index, built for arena reuse (the
//!   storage layer of `sgc-core`'s columnar kernel),
//! * [`parallel`] — small rayon helpers (chunked map-reduce over table
//!   entries, scoped thread pools for the scaling experiments).

pub mod columnar;
pub mod hash;
pub mod parallel;
pub mod signature;
pub mod table;

pub use columnar::{ColumnarTable, EndpointGroups};
pub use hash::FastMap;
pub use signature::{Color, Signature};
pub use table::{BinaryTable, Count, PathKey, PathTable, ProjectionTable, UnaryTable};
