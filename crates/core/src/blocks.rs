//! Solving blocks into projection tables.
//!
//! This module turns one block of the decomposition tree into its projection
//! table, given the already-computed tables of its children:
//!
//! * leaf-edge blocks are a short chain of joins (edge realization plus the
//!   node annotations of the two endpoints) followed by a projection onto the
//!   boundary node,
//! * cycle blocks are split into two path segments, each built by
//!   [`crate::paths::PathBuilder`], and merged back; the PS algorithm uses a
//!   single split at the boundary nodes, the DB algorithm runs one split per
//!   candidate highest node `a_h` and aggregates (Equation 1).

use crate::config::Algorithm;
use crate::context::Context;
use crate::metrics::RunMetrics;
use crate::paths::{combine_extras, BlockJoinIndex, Field, PathBuilder};
use sgc_engine::parallel::parallel_chunks;
use sgc_engine::{BinaryTable, Count, PathTable, ProjectionTable, Signature, UnaryTable};
use sgc_graph::vertex::NO_VERTEX;
use sgc_query::{Block, BlockKind, DecompositionTree, QueryNode};

/// Solves `block` into its projection table.
///
/// `child_tables` must already hold the tables of every child of `block`
/// (indexed by block id). The join-side child-table index is built here,
/// once, and shared by every split the solve performs; callers that fan one
/// block out over several workers (the sharded runtime) should build the
/// index themselves and call [`solve_block_with_index`] so it is not
/// rebuilt per worker.
pub fn solve_block(
    ctx: &Context<'_>,
    tree: &DecompositionTree,
    block: &Block,
    child_tables: &[Option<ProjectionTable>],
    algorithm: Algorithm,
    metrics: &mut RunMetrics,
) -> ProjectionTable {
    let index = BlockJoinIndex::build(block, child_tables);
    solve_block_with_index(ctx, tree, block, &index, algorithm, metrics)
}

/// Solves `block` against an already-built [`BlockJoinIndex`].
pub fn solve_block_with_index(
    ctx: &Context<'_>,
    tree: &DecompositionTree,
    block: &Block,
    index: &BlockJoinIndex<'_>,
    algorithm: Algorithm,
    metrics: &mut RunMetrics,
) -> ProjectionTable {
    match &block.kind {
        BlockKind::LeafEdge { .. } => solve_leaf_edge(ctx, tree, block, index, metrics),
        BlockKind::Cycle { .. } => solve_cycle(ctx, tree, block, index, algorithm, metrics),
    }
}

/// Solves a leaf-edge block `(a, b)` (with `b` the degree-one endpoint).
fn solve_leaf_edge(
    ctx: &Context<'_>,
    tree: &DecompositionTree,
    block: &Block,
    index: &BlockJoinIndex<'_>,
    metrics: &mut RunMetrics,
) -> ProjectionTable {
    let (a, b) = match block.kind {
        BlockKind::LeafEdge { boundary, leaf } => (boundary, leaf),
        _ => unreachable!("solve_leaf_edge called on a cycle block"),
    };
    let builder = PathBuilder::new(ctx, tree, block, index, false);
    // The "path" here is the single edge a -> b; both endpoint annotations
    // are folded in (there is no second path to share them with).
    let table = builder.build_path(&[0, 1], true, true, metrics);
    project_path_onto_boundary(
        ctx,
        block,
        &[(a, Field::Start), (b, Field::End)],
        table,
        metrics,
    )
}

/// Solves a cycle block with the chosen algorithm.
fn solve_cycle(
    ctx: &Context<'_>,
    tree: &DecompositionTree,
    block: &Block,
    index: &BlockJoinIndex<'_>,
    algorithm: Algorithm,
    metrics: &mut RunMetrics,
) -> ProjectionTable {
    let nodes = match &block.kind {
        BlockKind::Cycle { nodes } => nodes.clone(),
        _ => unreachable!("solve_cycle called on a leaf-edge block"),
    };
    let l = nodes.len();
    match algorithm {
        Algorithm::PathSplitting => {
            let (s, t) = ps_split_positions(block, &nodes);
            solve_cycle_split(ctx, tree, block, index, s, t, false, metrics)
        }
        Algorithm::DegreeBased => {
            let mut accumulated: Option<ProjectionTable> = None;
            for h in 0..l {
                let d = (h + l / 2) % l;
                let partial = solve_cycle_split(ctx, tree, block, index, h, d, true, metrics);
                accumulated = Some(match accumulated {
                    None => partial,
                    Some(acc) => merge_projection(acc, partial),
                });
            }
            accumulated.expect("cycles have at least three candidate highest nodes")
        }
    }
}

/// The PS split positions: at the two boundary nodes when there are two, at
/// the boundary node and its diagonal when there is one, and at position 0
/// and its diagonal for a root cycle without boundary nodes.
pub(crate) fn ps_split_positions(block: &Block, nodes: &[QueryNode]) -> (usize, usize) {
    let l = nodes.len();
    let position_of = |n: QueryNode| nodes.iter().position(|&x| x == n).unwrap();
    match block.boundary.as_slice() {
        [a, b] => (position_of(*a), position_of(*b)),
        [a] => {
            let s = position_of(*a);
            (s, (s + l / 2) % l)
        }
        [] => (0, l / 2),
        _ => unreachable!("cycle blocks have at most two boundary nodes"),
    }
}

/// Solves one split `(s, t)` of a cycle block: builds the clockwise path
/// `P+ = s..t` and the counter-clockwise path `P- = s..t`, then merges them.
/// With `high_start` set this computes the DB algorithm's per-`a_h` partial
/// counts `cnt(·|C, hi = h)`.
#[allow(clippy::too_many_arguments)]
fn solve_cycle_split(
    ctx: &Context<'_>,
    tree: &DecompositionTree,
    block: &Block,
    index: &BlockJoinIndex<'_>,
    s: usize,
    t: usize,
    high_start: bool,
    metrics: &mut RunMetrics,
) -> ProjectionTable {
    let l = block.kind.len();
    debug_assert!(l >= 3 && s != t);
    // Clockwise positions s, s+1, ..., t and counter-clockwise s, s-1, ..., t.
    let mut plus = vec![s];
    let mut p = s;
    while p != t {
        p = (p + 1) % l;
        plus.push(p);
    }
    let mut minus = vec![s];
    p = s;
    while p != t {
        p = (p + l - 1) % l;
        minus.push(p);
    }

    let builder = PathBuilder::new(ctx, tree, block, index, high_start);
    // Convention (Section 5.2): P+ folds in the annotation of the end node
    // a_d / a_t, P- folds in the annotation of the start node a_h / a_s, so
    // each endpoint annotation is joined exactly once.
    let plus_table = builder.build_path(&plus, false, true, metrics);
    let minus_table = builder.build_path(&minus, true, false, metrics);

    let nodes = block.kind.nodes();
    merge_paths(
        ctx,
        block,
        &builder,
        plus_table,
        minus_table,
        nodes[s],
        nodes[t],
        metrics,
    )
}

/// Merges the two path tables of a split into the block's projection table
/// (Procedure 2 of Figures 4 and 6): join on the shared endpoints, require
/// the signatures to overlap exactly in the endpoint colors, and key the
/// output by the images of the block's boundary nodes.
#[allow(clippy::too_many_arguments)]
fn merge_paths(
    ctx: &Context<'_>,
    block: &Block,
    builder: &PathBuilder<'_, '_>,
    plus: PathTable,
    minus: PathTable,
    start_node: QueryNode,
    end_node: QueryNode,
    metrics: &mut RunMetrics,
) -> ProjectionTable {
    let _ = builder;
    let minus_grouped = minus.group_by_endpoints();
    let plus_entries = plus.into_entries();
    let boundary = block.boundary.clone();
    let slot_of = |node: QueryNode| boundary.iter().position(|&b| b == node);

    let partials = parallel_chunks(&plus_entries, |chunk| {
        let mut scalar: Count = 0;
        let mut unary = UnaryTable::new();
        let mut binary = BinaryTable::new();
        let mut ops: u64 = 0;
        for &(pkey, pcount) in chunk {
            let Some(list) = minus_grouped.get(&(pkey.start, pkey.end)) else {
                continue;
            };
            ops += list.len() as u64;
            let shared = Signature::pair(ctx.color(pkey.start), ctx.color(pkey.end));
            for &(mkey, mcount) in list {
                if pkey.sig.intersection(mkey.sig) != shared {
                    continue;
                }
                let Some(mut extras) = combine_extras(pkey.extra, mkey.extra) else {
                    continue;
                };
                // Endpoints double as boundary nodes in some configurations;
                // make sure their slots are filled from the join fields.
                if let Some(slot) = slot_of(start_node) {
                    extras[slot] = pkey.start;
                }
                if let Some(slot) = slot_of(end_node) {
                    extras[slot] = pkey.end;
                }
                let sig = pkey.sig.union(mkey.sig);
                let count = pcount * mcount;
                match boundary.len() {
                    0 => scalar += count,
                    1 => {
                        debug_assert_ne!(extras[0], NO_VERTEX);
                        unary.add(extras[0], sig, count);
                    }
                    2 => {
                        debug_assert_ne!(extras[0], NO_VERTEX);
                        debug_assert_ne!(extras[1], NO_VERTEX);
                        binary.add(extras[0], extras[1], sig, count);
                    }
                    _ => unreachable!(),
                }
            }
        }
        (scalar, unary, binary, ops)
    });

    let mut scalar: Count = 0;
    let mut unary = UnaryTable::new();
    let mut binary = BinaryTable::new();
    for (s, u, b, ops) in partials {
        scalar += s;
        unary.merge(&u);
        binary.merge(&b);
        metrics.total_ops += ops;
    }
    let table = match block.boundary.len() {
        0 => ProjectionTable::Scalar(scalar),
        1 => ProjectionTable::Unary(unary),
        2 => ProjectionTable::Binary(binary),
        _ => unreachable!(),
    };
    metrics.observe_table(table.len());
    table
}

/// Projects a fully joined leaf-edge path table onto the block's boundary.
fn project_path_onto_boundary(
    ctx: &Context<'_>,
    block: &Block,
    node_fields: &[(QueryNode, Field)],
    table: PathTable,
    metrics: &mut RunMetrics,
) -> ProjectionTable {
    let _ = ctx;
    let result = match block.boundary.as_slice() {
        [] => {
            let total = table.iter().map(|(_, &c)| c).sum();
            ProjectionTable::Scalar(total)
        }
        [b] => {
            let field = node_fields
                .iter()
                .find(|&&(n, _)| n == *b)
                .map(|&(_, f)| f)
                .expect("boundary node must be an endpoint of the leaf edge");
            let mut unary = UnaryTable::new();
            for (key, &count) in table.iter() {
                let v = match field {
                    Field::Start => key.start,
                    Field::End => key.end,
                };
                unary.add(v, key.sig, count);
            }
            ProjectionTable::Unary(unary)
        }
        other => unreachable!("leaf-edge block with {} boundary nodes", other.len()),
    };
    metrics.observe_table(result.len());
    result
}

/// Adds two projection tables of the same shape (used to aggregate the DB
/// algorithm's per-highest-node partial tables, Equation 1, and by the
/// sharded runtime's exchange step to sum per-shard partial tables).
pub(crate) fn merge_projection(a: ProjectionTable, b: ProjectionTable) -> ProjectionTable {
    match (a, b) {
        (ProjectionTable::Scalar(x), ProjectionTable::Scalar(y)) => ProjectionTable::Scalar(x + y),
        (ProjectionTable::Unary(mut x), ProjectionTable::Unary(y)) => {
            x.merge(&y);
            ProjectionTable::Unary(x)
        }
        (ProjectionTable::Binary(mut x), ProjectionTable::Binary(y)) => {
            x.merge(&y);
            ProjectionTable::Binary(x)
        }
        _ => unreachable!("partial tables of one block always have the same shape"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgc_graph::{Coloring, GraphBuilder};
    use sgc_query::{decompose, QueryGraph};

    /// Counts colorful matches of a pure triangle query on a data triangle
    /// with rainbow colors — 6 matches (3! orientations), for both algorithms.
    #[test]
    fn triangle_on_rainbow_triangle() {
        let mut b = GraphBuilder::new(3);
        b.extend_edges([(0, 1), (1, 2), (2, 0)]);
        let g = b.build();
        let coloring = Coloring::from_colors(vec![0, 1, 2], 3);
        let query = QueryGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let tree = decompose(&query).unwrap();
        let prep = crate::context::GraphPrep::new(&g);
        let ctx = Context::new(&g, &prep, &coloring).unwrap();
        for algorithm in [Algorithm::PathSplitting, Algorithm::DegreeBased] {
            let mut metrics = RunMetrics::new();
            let table = solve_block(
                &ctx,
                &tree,
                &tree.blocks[0],
                &[None],
                algorithm,
                &mut metrics,
            );
            assert_eq!(table.total(), 6, "{algorithm}");
            assert!(metrics.total_ops > 0);
        }
    }

    /// A monochromatic data triangle has no colorful matches.
    #[test]
    fn triangle_without_colors_counts_zero() {
        let mut b = GraphBuilder::new(3);
        b.extend_edges([(0, 1), (1, 2), (2, 0)]);
        let g = b.build();
        let coloring = Coloring::from_colors(vec![0, 0, 1], 3);
        let query = QueryGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let tree = decompose(&query).unwrap();
        let prep = crate::context::GraphPrep::new(&g);
        let ctx = Context::new(&g, &prep, &coloring).unwrap();
        for algorithm in [Algorithm::PathSplitting, Algorithm::DegreeBased] {
            let mut metrics = RunMetrics::new();
            let table = solve_block(
                &ctx,
                &tree,
                &tree.blocks[0],
                &[None],
                algorithm,
                &mut metrics,
            );
            assert_eq!(table.total(), 0, "{algorithm}");
        }
    }
}
