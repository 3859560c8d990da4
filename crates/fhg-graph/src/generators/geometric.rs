//! Random geometric (unit-disk) graphs.
//!
//! The paper's introduction motivates the Holiday Gathering Problem with
//! cellular radios: two radios conflict when their transmission disks
//! overlap.  A random geometric graph places `n` radios uniformly in the unit
//! square and connects pairs at Euclidean distance at most `r` — exactly the
//! conflict structure the `fhg-radio` crate schedules.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::{Graph, NodeId};

/// A point in the unit square.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Horizontal coordinate in `[0, 1]`.
    pub x: f64,
    /// Vertical coordinate in `[0, 1]`.
    pub y: f64,
}

impl Point {
    /// Euclidean distance to another point.
    pub fn distance(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// A unit-disk graph together with the node positions that induced it.
///
/// The positions are retained because the radio application (`fhg-radio`)
/// needs them to compute interference statistics and to draw schedules.
#[derive(Debug, Clone)]
pub struct GeometricGraph {
    graph: Graph,
    positions: Vec<Point>,
    radius: f64,
}

impl GeometricGraph {
    /// The conflict graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Consumes self, returning only the conflict graph.
    pub fn into_graph(self) -> Graph {
        self.graph
    }

    /// Position of node `u`.
    pub fn position(&self, u: NodeId) -> Point {
        self.positions[u]
    }

    /// All positions, indexed by node id.
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// The connection radius used to build the graph.
    pub fn radius(&self) -> f64 {
        self.radius
    }
}

/// Generates a random geometric graph: `n` points uniform in the unit square,
/// edges between pairs at distance `<= radius`.
///
/// Uses a uniform grid of cell size `radius` so construction is close to
/// linear for sparse graphs instead of the naive `O(n^2)` pair scan.
///
/// # Panics
/// Panics if `radius` is negative or NaN.
pub fn random_geometric(n: usize, radius: f64, seed: u64) -> GeometricGraph {
    assert!(radius >= 0.0 && radius.is_finite(), "radius must be non-negative, got {radius}");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let positions: Vec<Point> =
        (0..n).map(|_| Point { x: rng.gen::<f64>(), y: rng.gen::<f64>() }).collect();
    let mut edges = Vec::new();
    if n >= 2 && radius > 0.0 {
        // Bucket points into a grid of cell width `radius`; only neighbouring
        // cells can contain points within range.
        let cells_per_side = ((1.0 / radius).floor() as usize).clamp(1, n.max(1));
        let cell_of = |p: &Point| -> (usize, usize) {
            let cx = ((p.x * cells_per_side as f64) as usize).min(cells_per_side - 1);
            let cy = ((p.y * cells_per_side as f64) as usize).min(cells_per_side - 1);
            (cx, cy)
        };
        let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new(); cells_per_side * cells_per_side];
        for (i, p) in positions.iter().enumerate() {
            let (cx, cy) = cell_of(p);
            buckets[cy * cells_per_side + cx].push(i);
        }
        for (i, p) in positions.iter().enumerate() {
            let (cx, cy) = cell_of(p);
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    let nx = cx as i64 + dx;
                    let ny = cy as i64 + dy;
                    if nx < 0
                        || ny < 0
                        || nx >= cells_per_side as i64
                        || ny >= cells_per_side as i64
                    {
                        continue;
                    }
                    for &j in &buckets[ny as usize * cells_per_side + nx as usize] {
                        if j > i && p.distance(&positions[j]) <= radius {
                            edges.push((i, j));
                        }
                    }
                }
            }
        }
    }
    let graph = Graph::from_edges(n, edges).expect("grid enumeration visits each pair once");
    GeometricGraph { graph, positions, radius }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force reference construction.
    fn naive(positions: &[Point], radius: f64) -> Graph {
        let mut g = Graph::new(positions.len());
        for i in 0..positions.len() {
            for j in (i + 1)..positions.len() {
                if positions[i].distance(&positions[j]) <= radius {
                    g.add_edge(i, j).unwrap();
                }
            }
        }
        g
    }

    #[test]
    fn matches_naive_construction() {
        for seed in 0..5u64 {
            for &radius in &[0.05, 0.15, 0.4, 1.5] {
                let gg = random_geometric(150, radius, seed);
                let reference = naive(gg.positions(), radius);
                assert_eq!(
                    gg.graph(),
                    &reference,
                    "grid construction differs from naive at r={radius} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn zero_radius_has_no_edges() {
        let gg = random_geometric(100, 0.0, 3);
        assert_eq!(gg.graph().edge_count(), 0);
    }

    #[test]
    fn huge_radius_is_complete() {
        let gg = random_geometric(40, 2.0, 3);
        assert_eq!(gg.graph().edge_count(), 40 * 39 / 2);
    }

    #[test]
    fn positions_are_in_unit_square_and_retained() {
        let gg = random_geometric(64, 0.1, 11);
        assert_eq!(gg.positions().len(), 64);
        assert!((gg.radius() - 0.1).abs() < 1e-15);
        for u in 0..64 {
            let p = gg.position(u);
            assert!((0.0..=1.0).contains(&p.x));
            assert!((0.0..=1.0).contains(&p.y));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = random_geometric(80, 0.12, 5);
        let b = random_geometric(80, 0.12, 5);
        assert_eq!(a.graph(), b.graph());
        assert_eq!(a.positions(), b.positions());
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let p = Point { x: 0.25, y: 0.75 };
        let q = Point { x: 0.5, y: 0.25 };
        assert!((p.distance(&q) - q.distance(&p)).abs() < 1e-15);
        assert_eq!(p.distance(&p), 0.0);
    }

    #[test]
    #[should_panic(expected = "radius")]
    fn negative_radius_panics() {
        random_geometric(10, -0.1, 0);
    }

    #[test]
    fn empty_and_single_node_graphs() {
        assert_eq!(random_geometric(0, 0.3, 0).graph().node_count(), 0);
        let g = random_geometric(1, 0.3, 0);
        assert_eq!(g.graph().node_count(), 1);
        assert_eq!(g.graph().edge_count(), 0);
    }
}
