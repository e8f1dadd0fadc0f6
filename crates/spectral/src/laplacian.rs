//! The symmetric graph Laplacian as a matrix-free CSR operator.

use vnet_graph::DiGraph;
use vnet_par::{ParPool, ParStats};

/// Rows per fork-join task in [`SymLaplacian::matvec_into_pool`]. Fixed per
/// call site so the shard layout depends on the dimension only; each row is
/// computed independently, so sharding cannot change any output bit. Small
/// operators (`n <= ROW_CHUNK`) decompose into a single task, which runs
/// inline on the caller's thread.
pub(crate) const ROW_CHUNK: usize = 4096;

/// Symmetric Laplacian `L = D − A` of the undirected projection of a
/// directed graph (an undirected edge `{u, v}` exists when either `u → v`
/// or `v → u` does).
///
/// Stored as CSR over the symmetrized adjacency; the only operation exposed
/// is the matrix-vector product, which is all both eigensolvers need.
#[derive(Debug, Clone)]
pub struct SymLaplacian {
    n: usize,
    offsets: Vec<u64>,
    neighbors: Vec<u32>,
    degree: Vec<f64>,
}

impl SymLaplacian {
    /// Build from a directed graph by symmetrizing its edge set.
    pub fn from_digraph(g: &DiGraph) -> Self {
        let n = g.node_count();
        // Merge out- and in-lists (both sorted) per node through one
        // reusable buffer — a per-node Vec here would mean V transient
        // allocations on a build that is otherwise two arena writes.
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors: Vec<u32> = Vec::with_capacity(2 * g.edge_count());
        let mut merged: Vec<u32> = Vec::new();
        offsets.push(0u64);
        for u in 0..n as u32 {
            merge_sorted_unique_into(g.out_neighbors(u), g.in_neighbors(u), u, &mut merged);
            neighbors.extend_from_slice(&merged);
            offsets.push(neighbors.len() as u64);
        }
        let degree: Vec<f64> =
            (0..n).map(|u| (offsets[u + 1] - offsets[u]) as f64).collect();
        Self { n, offsets, neighbors, degree }
    }

    /// Dimension of the operator.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Undirected degree of node `u`.
    pub fn degree(&self, u: usize) -> f64 {
        self.degree[u]
    }

    /// Maximum undirected degree; `λ_max(L) ≤ 2 · d_max` (and
    /// `λ_max ≥ d_max + 1` on any graph with an edge), giving cheap spectral
    /// bounds for tests.
    pub fn max_degree(&self) -> f64 {
        self.degree.iter().cloned().fold(0.0, f64::max)
    }

    /// `y = L x` (allocating). See [`SymLaplacian::matvec_into`].
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n];
        self.matvec_into(x, &mut y);
        y
    }

    /// `y = L x = D x − A x`, no allocation.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n, "matvec: dimension mismatch");
        assert_eq!(y.len(), self.n, "matvec: output dimension mismatch");
        for (u, slot) in y.iter_mut().enumerate() {
            *slot = self.row_apply(u, x);
        }
    }

    /// [`matvec_into`](Self::matvec_into) sharded over `pool`: rows are
    /// split into `ROW_CHUNK`-sized tasks, each owning a disjoint slice
    /// of `y`. Every row's accumulator is private, so the output is
    /// **bitwise identical** to the serial product at any thread count.
    pub fn matvec_into_pool(&self, x: &[f64], y: &mut [f64], pool: &ParPool) -> ParStats {
        assert_eq!(x.len(), self.n, "matvec: dimension mismatch");
        assert_eq!(y.len(), self.n, "matvec: output dimension mismatch");
        pool.for_each_chunk_mut(y, ROW_CHUNK, |_task, offset, chunk| {
            for (k, slot) in chunk.iter_mut().enumerate() {
                *slot = self.row_apply(offset + k, x);
            }
        })
    }

    /// One row of `L x`: `deg(u)·x[u] − Σ_{v ~ u} x[v]`, accumulated in
    /// CSR neighbor order.
    #[inline]
    fn row_apply(&self, u: usize, x: &[f64]) -> f64 {
        let mut acc = self.degree[u] * x[u];
        let (a, b) = (self.offsets[u] as usize, self.offsets[u + 1] as usize);
        for &v in &self.neighbors[a..b] {
            acc -= x[v as usize];
        }
        acc
    }
}

/// Merge two sorted id slices into `out` (cleared first), sorted unique,
/// excluding `skip` (self-loops never enter the Laplacian off-diagonal).
fn merge_sorted_unique_into(a: &[u32], b: &[u32], skip: u32, out: &mut Vec<u32>) {
    out.clear();
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let nxt = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x == y => {
                i += 1;
                j += 1;
                x
            }
            (Some(&x), Some(&y)) if x < y => {
                i += 1;
                x
            }
            (Some(_), Some(&y)) => {
                j += 1;
                y
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => unreachable!(),
        };
        if nxt != skip && out.last() != Some(&nxt) {
            out.push(nxt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_graph::builder::from_edges;

    #[test]
    fn symmetrization_merges_directions() {
        // 0 -> 1 and 2 -> 0 produce undirected edges {0,1}, {0,2}.
        let g = from_edges(3, &[(0, 1), (2, 0)]).unwrap();
        let l = SymLaplacian::from_digraph(&g);
        assert_eq!(l.degree(0), 2.0);
        assert_eq!(l.degree(1), 1.0);
        assert_eq!(l.degree(2), 1.0);
    }

    #[test]
    fn mutual_edge_counted_once() {
        let g = from_edges(2, &[(0, 1), (1, 0)]).unwrap();
        let l = SymLaplacian::from_digraph(&g);
        assert_eq!(l.degree(0), 1.0);
        assert_eq!(l.degree(1), 1.0);
    }

    #[test]
    fn matvec_annihilates_constants() {
        // L * 1 = 0 for any graph: rows sum to zero.
        let g = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]).unwrap();
        let l = SymLaplacian::from_digraph(&g);
        let ones = vec![1.0; 5];
        for v in l.matvec(&ones) {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn matvec_known_small_case() {
        // Path 0 - 1 - 2: L = [[1,-1,0],[-1,2,-1],[0,-1,1]].
        let g = from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let l = SymLaplacian::from_digraph(&g);
        let y = l.matvec(&[1.0, 0.0, -1.0]);
        assert_eq!(y, vec![1.0, 0.0, -1.0]); // eigvec with eigenvalue 1
        let y2 = l.matvec(&[1.0, -2.0, 1.0]);
        assert_eq!(y2, vec![3.0, -6.0, 3.0]); // eigvec with eigenvalue 3
    }

    #[test]
    fn quadratic_form_nonnegative() {
        // x' L x = Σ_{u~v} (x_u − x_v)² >= 0.
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
        let l = SymLaplacian::from_digraph(&g);
        for x in [[1.0, -1.0, 2.0, 0.5], [0.0, 3.0, -3.0, 1.0]] {
            let y = l.matvec(&x);
            let q: f64 = x.iter().zip(&y).map(|(&a, &b)| a * b).sum();
            assert!(q >= -1e-12, "quadratic form negative: {q}");
        }
    }

    #[test]
    fn isolated_node_zero_row() {
        let g = from_edges(3, &[(0, 1)]).unwrap();
        let l = SymLaplacian::from_digraph(&g);
        let y = l.matvec(&[5.0, 7.0, 11.0]);
        assert_eq!(y[2], 0.0);
        assert_eq!(l.degree(2), 0.0);
    }
}
