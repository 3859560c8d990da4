//! Plain-text serialisation of conflict graphs.
//!
//! Two interchange formats are supported so conflict graphs can be moved in
//! and out of the library (e.g. to schedule a *real* extended family, or to
//! feed the same instance to an external solver):
//!
//! * **edge list** — one `u v` pair per line, with an initial `n m` header
//!   line; comments start with `#`.
//! * **DIMACS** — the classic `p edge n m` / `e u v` format used by graph
//!   colouring benchmarks (1-based vertex ids on disk, converted to this
//!   crate's 0-based ids in memory).

use std::fmt::Write as _;

use crate::error::GraphError;
use crate::{Graph, NodeId};

/// Serialises a graph as an edge list (`n m` header, one `u v` line per edge).
pub fn to_edge_list(graph: &Graph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{} {}", graph.node_count(), graph.edge_count());
    for e in graph.edges() {
        let _ = writeln!(out, "{} {}", e.u, e.v);
    }
    out
}

/// Parses a graph from the edge-list format produced by [`to_edge_list`].
///
/// Blank lines and lines starting with `#` are ignored.  Edges must reference
/// nodes below the declared count; duplicate edges, self-loops and node
/// counts too large to allocate are rejected (conflict graphs are simple).
pub fn from_edge_list(text: &str) -> Result<Graph, GraphError> {
    let mut lines = text.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#'));
    let header = lines
        .next()
        .ok_or_else(|| GraphError::InvalidParameter("missing `n m` header line".into()))?;
    let mut parts = header.split_whitespace();
    let n: usize = parse_field(parts.next(), "node count")?;
    let declared_edges: usize = parse_field(parts.next(), "edge count")?;
    let mut edges = Vec::new();
    for line in lines {
        let mut fields = line.split_whitespace();
        let u: NodeId = parse_field(fields.next(), "edge endpoint")?;
        let v: NodeId = parse_field(fields.next(), "edge endpoint")?;
        edges.push((u, v));
    }
    let graph = Graph::from_edges(n, edges)?;
    if graph.edge_count() != declared_edges {
        return Err(GraphError::InvalidParameter(format!(
            "header declares {declared_edges} edges but {} were listed",
            graph.edge_count()
        )));
    }
    Ok(graph)
}

/// Serialises a graph in DIMACS `p edge` format (1-based vertex ids).
pub fn to_dimacs(graph: &Graph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "c family holiday gathering conflict graph");
    let _ = writeln!(out, "p edge {} {}", graph.node_count(), graph.edge_count());
    for e in graph.edges() {
        let _ = writeln!(out, "e {} {}", e.u + 1, e.v + 1);
    }
    out
}

/// Parses a graph from DIMACS `p edge` format (1-based vertex ids on disk).
///
/// `c` lines are comments; duplicate `e` lines are tolerated (DIMACS files in
/// the wild often list both orientations) but self-loops and node counts too
/// large to allocate are rejected.
pub fn from_dimacs(text: &str) -> Result<Graph, GraphError> {
    let mut graph: Option<(usize, Vec<(NodeId, NodeId)>)> = None;
    for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
        let mut fields = line.split_whitespace();
        match fields.next() {
            Some("c") => {}
            Some("p") => {
                let kind = fields.next().unwrap_or_default();
                if kind != "edge" && kind != "col" {
                    return Err(GraphError::InvalidParameter(format!(
                        "unsupported DIMACS problem kind {kind:?}"
                    )));
                }
                let n: usize = parse_field(fields.next(), "node count")?;
                graph = Some((n, Vec::new()));
            }
            Some("e") => {
                let (_, edges) = graph.as_mut().ok_or_else(|| {
                    GraphError::InvalidParameter("`e` line before the `p` line".into())
                })?;
                let u: usize = parse_field(fields.next(), "edge endpoint")?;
                let v: usize = parse_field(fields.next(), "edge endpoint")?;
                if u == 0 || v == 0 {
                    return Err(GraphError::InvalidParameter(
                        "DIMACS vertex ids are 1-based; found 0".into(),
                    ));
                }
                edges.push(((u - 1).min(v - 1), (u - 1).max(v - 1)));
            }
            Some(other) => {
                return Err(GraphError::InvalidParameter(format!(
                    "unrecognised DIMACS line prefix {other:?}"
                )));
            }
            None => {}
        }
    }
    let (n, mut edges) =
        graph.ok_or_else(|| GraphError::InvalidParameter("no `p edge` line found".into()))?;
    edges.sort_unstable();
    edges.dedup();
    Graph::from_edges(n, edges)
}

fn parse_field<T: std::str::FromStr>(field: Option<&str>, what: &str) -> Result<T, GraphError> {
    field
        .ok_or_else(|| GraphError::InvalidParameter(format!("missing {what}")))?
        .parse()
        .map_err(|_| GraphError::InvalidParameter(format!("malformed {what}: {field:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{erdos_renyi, structured::cycle};
    use proptest::prelude::*;

    #[test]
    fn edge_list_roundtrip() {
        let g = erdos_renyi(40, 0.1, 5);
        let text = to_edge_list(&g);
        let back = from_edge_list(&text).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn edge_list_with_comments_and_blank_lines() {
        let text = "# a tiny family\n\n3 2\n0 1\n# the in-laws\n1 2\n";
        let g = from_edge_list(text).unwrap();
        assert_eq!(g.node_count(), 3);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 2));
    }

    #[test]
    fn edge_list_errors() {
        assert!(from_edge_list("").is_err(), "missing header");
        assert!(from_edge_list("abc def").is_err(), "malformed header");
        assert!(from_edge_list("2 1\n0 5").is_err(), "endpoint out of range");
        assert!(from_edge_list("2 1\n0 0").is_err(), "self loop");
        assert!(from_edge_list("3 2\n0 1").is_err(), "edge count mismatch");
        assert!(from_edge_list("3 1\n0 x").is_err(), "malformed endpoint");
        for text in ["18446744073709551615 0", "99999999999999 0"] {
            assert!(
                matches!(from_edge_list(text), Err(GraphError::InvalidParameter(_))),
                "unallocatable node count {text}"
            );
        }
    }

    #[test]
    fn dimacs_roundtrip() {
        let g = cycle(9);
        let text = to_dimacs(&g);
        assert!(text.contains("p edge 9 9"));
        let back = from_dimacs(&text).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn dimacs_tolerates_duplicate_edges_and_comments() {
        let text = "c comment\np edge 3 2\ne 1 2\ne 2 1\ne 2 3\n";
        let g = from_dimacs(text).unwrap();
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn dimacs_errors() {
        assert!(from_dimacs("").is_err(), "no p line");
        assert!(from_dimacs("e 1 2\np edge 3 1").is_err(), "e before p");
        assert!(from_dimacs("p matrix 3 1").is_err(), "unsupported kind");
        assert!(from_dimacs("p edge 3 1\ne 0 2").is_err(), "zero-based id rejected");
        assert!(from_dimacs("p edge 3 1\nx 1 2").is_err(), "unknown prefix");
        assert!(from_dimacs("p edge 3 1\ne 2 2").is_err(), "self loop");
        assert!(
            matches!(
                from_dimacs("p edge 18446744073709551615 0"),
                Err(GraphError::InvalidParameter(_))
            ),
            "unallocatable node count"
        );
    }

    proptest! {
        #[test]
        fn both_formats_roundtrip_random_graphs(seed in 0u64..40, p in 0.0f64..0.3) {
            let g = erdos_renyi(25, p, seed);
            prop_assert_eq!(from_edge_list(&to_edge_list(&g)).unwrap(), g.clone());
            prop_assert_eq!(from_dimacs(&to_dimacs(&g)).unwrap(), g);
        }
    }
}
