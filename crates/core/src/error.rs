//! Typed errors for the counting front door.
//!
//! Every input-validation failure in the `sgc-core` public entry points is
//! reported as an [`SgcError`] instead of a panic: a service embedding the
//! [`Engine`](crate::Engine) must be able to reject a bad request without
//! aborting the process.

use sgc_query::{PatternParseError, QueryError};

/// Reasons a counting or estimation request cannot run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SgcError {
    /// The query could not be planned (empty, disconnected, treewidth > 2,
    /// too many nodes, or no decomposition found).
    Query(QueryError),
    /// A textual pattern could not be parsed. The wrapped error carries the
    /// byte span of the offending token and renders a caret diagnostic; see
    /// [`sgc_query::parse`].
    Pattern(PatternParseError),
    /// The coloring does not assign a color to every vertex of the data
    /// graph.
    ColoringSizeMismatch {
        /// Vertices in the engine's data graph.
        graph_vertices: usize,
        /// Vertices covered by the supplied coloring.
        coloring_vertices: usize,
    },
    /// The coloring does not use exactly as many colors as the query has
    /// nodes (color coding needs `k` colors for a `k`-node query).
    WrongColorCount {
        /// Colors required: the number of query nodes.
        expected: usize,
        /// Colors in the supplied coloring.
        actual: usize,
    },
    /// An estimation was requested with zero trials.
    ZeroTrials,
    /// An estimation was requested with an explicit coloring. Estimation
    /// draws its own independent coloring per trial; a fixed coloring would
    /// silently produce `trials` copies of one measurement, so the
    /// combination is rejected (use `run()` for a single explicit coloring).
    ColoringWithEstimate,
    /// A sharded run was requested with zero shards. Every run needs at
    /// least one vertex shard; an unsharded run is a one-shard run.
    ZeroShards,
    /// A batch contained a request created by a *different* engine. Batched
    /// requests share the executing engine's graph, preprocessing and plan
    /// cache, so a request bound to another engine (and possibly another
    /// graph) cannot be mixed in.
    EngineMismatch,
    /// An explicitly supplied decomposition plan was built for a different
    /// query than the one being counted (the node counts, the edge counts,
    /// or the edge sets differ).
    PlanQueryMismatch {
        /// Nodes in the query being counted.
        query_nodes: usize,
        /// Nodes in the query the plan decomposes.
        plan_nodes: usize,
        /// Edges in the query being counted.
        query_edges: usize,
        /// Edges in the query the plan decomposes.
        plan_edges: usize,
    },
}

impl std::fmt::Display for SgcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SgcError::Query(e) => write!(f, "query cannot be planned: {e}"),
            SgcError::Pattern(e) => write!(f, "pattern cannot be parsed: {}", e.message()),
            SgcError::ColoringSizeMismatch {
                graph_vertices,
                coloring_vertices,
            } => write!(
                f,
                "coloring covers {coloring_vertices} vertices but the data graph has {graph_vertices}"
            ),
            SgcError::WrongColorCount { expected, actual } => write!(
                f,
                "coloring uses {actual} colors but the query needs exactly {expected}"
            ),
            SgcError::ZeroTrials => write!(f, "estimation needs at least one trial"),
            SgcError::ColoringWithEstimate => write!(
                f,
                "estimate() draws its own per-trial colorings; use run() to count under an explicit coloring"
            ),
            SgcError::EngineMismatch => write!(
                f,
                "batched requests must all come from the engine executing the batch"
            ),
            SgcError::ZeroShards => write!(f, "sharded execution needs at least one shard"),
            SgcError::PlanQueryMismatch {
                query_nodes,
                plan_nodes,
                query_edges,
                plan_edges,
            } => write!(
                f,
                "supplied plan decomposes a different query \
                 (plan: {plan_nodes} nodes / {plan_edges} edges, \
                 request: {query_nodes} nodes / {query_edges} edges; \
                 equal counts mean the edge sets differ)"
            ),
        }
    }
}

impl std::error::Error for SgcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SgcError::Query(e) => Some(e),
            SgcError::Pattern(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QueryError> for SgcError {
    fn from(e: QueryError) -> Self {
        SgcError::Query(e)
    }
}

impl From<PatternParseError> for SgcError {
    fn from(e: PatternParseError) -> Self {
        SgcError::Pattern(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(SgcError::from(QueryError::TreewidthExceeded)
            .to_string()
            .contains("treewidth"));
        assert!(SgcError::ColoringSizeMismatch {
            graph_vertices: 10,
            coloring_vertices: 4
        }
        .to_string()
        .contains("10"));
        assert!(SgcError::WrongColorCount {
            expected: 5,
            actual: 3
        }
        .to_string()
        .contains("exactly 5"));
        assert!(SgcError::ZeroTrials.to_string().contains("trial"));
        assert!(SgcError::ZeroShards.to_string().contains("shard"));
        assert!(SgcError::EngineMismatch.to_string().contains("engine"));
    }

    #[test]
    fn query_errors_convert_and_expose_a_source() {
        let err = SgcError::from(QueryError::Disconnected);
        assert_eq!(err, SgcError::Query(QueryError::Disconnected));
        let source = std::error::Error::source(&err).expect("Query wraps a source");
        assert!(source.to_string().contains("connected"));
    }

    #[test]
    fn pattern_errors_convert_and_keep_their_span() {
        let parse_err = sgc_query::Pattern::parse("a-a").unwrap_err();
        let err = SgcError::from(parse_err.clone());
        assert!(err.to_string().contains("self loop"));
        match &err {
            SgcError::Pattern(inner) => assert_eq!(inner.span(), parse_err.span()),
            other => panic!("expected Pattern, got {other:?}"),
        }
        assert!(std::error::Error::source(&err).is_some());
    }
}
