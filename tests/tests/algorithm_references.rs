//! Reference cross-validation: every graph algorithm checked against an
//! independent brute-force implementation on randomized small graphs.
//! These are the tests that make the paper-scale numbers trustworthy —
//! if Brandes, Tarjan, PageRank or the Laplacian drifted, the calibrated
//! figures would be fiction.

use proptest::prelude::*;
use vnet_algos::betweenness::betweenness_exact;
use vnet_algos::components::strongly_connected_components;
use vnet_algos::distances::{bfs_distances, UNREACHABLE};
use vnet_algos::pagerank::{pagerank, PageRankConfig};
use vnet_algos::reciprocity::reciprocity;
use vnet_graph::builder::from_edges;
use vnet_graph::DiGraph;
use vnet_spectral::{lanczos_topk, SymLaplacian};

/// Random edge list over `n` nodes from a proptest-provided pair vector.
fn graph_from(n: u32, raw: &[(u32, u32)]) -> DiGraph {
    let edges: Vec<(u32, u32)> = raw.iter().map(|&(u, v)| (u % n, v % n)).collect();
    from_edges(n, &edges).unwrap()
}

/// Floyd–Warshall over the adjacency for distance reference.
fn floyd_warshall(g: &DiGraph) -> Vec<Vec<u32>> {
    let n = g.node_count();
    let inf = u32::MAX / 4;
    let mut d = vec![vec![inf; n]; n];
    for v in 0..n {
        d[v][v] = 0;
    }
    for (u, v) in g.edges() {
        d[u as usize][v as usize] = 1;
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                let via = d[i][k].saturating_add(d[k][j]);
                if via < d[i][j] {
                    d[i][j] = via;
                }
            }
        }
    }
    d
}

/// Brute-force SCC labelling via mutual reachability.
fn brute_scc_same(g: &DiGraph, a: u32, b: u32) -> bool {
    let da = bfs_distances(g, a);
    let db = bfs_distances(g, b);
    da[b as usize] != UNREACHABLE && db[a as usize] != UNREACHABLE
}

/// Brute-force betweenness by per-pair shortest-path enumeration.
fn brute_betweenness(g: &DiGraph) -> Vec<f64> {
    let n = g.node_count();
    let mut score = vec![0.0f64; n];
    for s in 0..n as u32 {
        let dist = bfs_distances(g, s);
        // Count shortest paths from s by DP in BFS order.
        let mut order: Vec<u32> = (0..n as u32)
            .filter(|&v| dist[v as usize] != UNREACHABLE)
            .collect();
        order.sort_by_key(|&v| dist[v as usize]);
        let mut sigma = vec![0.0f64; n];
        sigma[s as usize] = 1.0;
        for &v in &order {
            for &w in g.out_neighbors(v) {
                if dist[w as usize] == dist[v as usize] + 1 {
                    sigma[w as usize] += sigma[v as usize];
                }
            }
        }
        // For each target t and interior v: paths through v =
        // sigma_sv * sigma_vt(computed on reverse) with distance check.
        for t in 0..n as u32 {
            if t == s || dist[t as usize] == UNREACHABLE {
                continue;
            }
            // sigma from t backwards: count shortest s->t paths through v
            // as sigma[v] * sigma_rev[v] where sigma_rev counts paths from
            // v to t along the BFS DAG.
            let mut sigma_rev = vec![0.0f64; n];
            sigma_rev[t as usize] = 1.0;
            let mut rev_order = order.clone();
            rev_order.sort_by_key(|&v| std::cmp::Reverse(dist[v as usize]));
            for &v in &rev_order {
                for &w in g.out_neighbors(v) {
                    if dist[w as usize] == dist[v as usize] + 1 {
                        sigma_rev[v as usize] += sigma_rev[w as usize];
                    }
                }
            }
            let total = sigma[t as usize];
            if total == 0.0 {
                continue;
            }
            for v in 0..n as u32 {
                if v != s
                    && v != t
                    && dist[v as usize] != UNREACHABLE
                    && dist[v as usize] < dist[t as usize]
                {
                    score[v as usize] += sigma[v as usize] * sigma_rev[v as usize] / total;
                }
            }
        }
    }
    score
}

/// Dense PageRank reference (explicit matrix iteration).
fn dense_pagerank(g: &DiGraph, damping: f64, iters: usize) -> Vec<f64> {
    let n = g.node_count();
    let mut r = vec![1.0 / n as f64; n];
    for _ in 0..iters {
        let mut next = vec![0.0f64; n];
        let mut dangling = 0.0;
        for u in 0..n as u32 {
            let d = g.out_degree(u);
            if d == 0 {
                dangling += r[u as usize];
            } else {
                let share = r[u as usize] / d as f64;
                for &v in g.out_neighbors(u) {
                    next[v as usize] += share;
                }
            }
        }
        for x in next.iter_mut() {
            *x = (1.0 - damping) / n as f64 + damping * (*x + dangling / n as f64);
        }
        r = next;
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn bfs_matches_floyd_warshall(raw in proptest::collection::vec((0u32..10, 0u32..10), 0..50)) {
        let g = graph_from(10, &raw);
        let fw = floyd_warshall(&g);
        for s in 0..10u32 {
            let bfs = bfs_distances(&g, s);
            for t in 0..10usize {
                let expect = if fw[s as usize][t] >= u32::MAX / 4 { UNREACHABLE } else { fw[s as usize][t] };
                prop_assert_eq!(bfs[t], expect, "s={} t={}", s, t);
            }
        }
    }

    #[test]
    fn tarjan_matches_mutual_reachability(raw in proptest::collection::vec((0u32..9, 0u32..9), 0..40)) {
        let g = graph_from(9, &raw);
        let scc = strongly_connected_components(&g);
        for a in 0..9u32 {
            for b in (a + 1)..9u32 {
                let same = scc.component_of[a as usize] == scc.component_of[b as usize];
                prop_assert_eq!(same, brute_scc_same(&g, a, b), "a={} b={}", a, b);
            }
        }
    }

    #[test]
    fn brandes_matches_brute_force(raw in proptest::collection::vec((0u32..8, 0u32..8), 0..30)) {
        let g = graph_from(8, &raw);
        let fast = betweenness_exact(&g);
        let brute = brute_betweenness(&g);
        for v in 0..8usize {
            prop_assert!((fast[v] - brute[v]).abs() < 1e-9,
                "v={}: brandes {} vs brute {}", v, fast[v], brute[v]);
        }
    }

    #[test]
    fn pagerank_matches_dense_reference(raw in proptest::collection::vec((0u32..12, 0u32..12), 0..60)) {
        let g = graph_from(12, &raw);
        let fast = pagerank(
            &g,
            PageRankConfig { damping: 0.85, tol: 1e-14, max_iter: 500 },
            &vnet_ctx::AnalysisCtx::quiet(),
        );
        let dense = dense_pagerank(&g, 0.85, 500);
        for v in 0..12usize {
            prop_assert!((fast.scores[v] - dense[v]).abs() < 1e-10,
                "v={}: {} vs {}", v, fast.scores[v], dense[v]);
        }
        let total: f64 = fast.scores.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reciprocity_matches_brute_force(raw in proptest::collection::vec((0u32..10, 0u32..10), 0..60)) {
        let g = graph_from(10, &raw);
        let fast = reciprocity(&g);
        let edges: Vec<(u32, u32)> = g.edges().collect();
        let brute = if edges.is_empty() { 0.0 } else {
            edges.iter().filter(|&&(u, v)| edges.contains(&(v, u))).count() as f64
                / edges.len() as f64
        };
        prop_assert!((fast - brute).abs() < 1e-12);
    }

    #[test]
    fn laplacian_spectrum_trace_identities(raw in proptest::collection::vec((0u32..9, 0u32..9), 1..40)) {
        // Full spectrum via Lanczos at k = n; check both trace identities:
        // Σλ = Σd and Σλ² = Σ(d² + d) for the simple-graph Laplacian.
        let g = graph_from(9, &raw);
        let lap = SymLaplacian::from_digraph(&g);
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let eig = lanczos_topk(&lap, 9, 9, &mut rng, &vnet_ctx::AnalysisCtx::quiet());
        let deg: Vec<f64> = (0..9).map(|v| lap.degree(v)).collect();
        let trace: f64 = deg.iter().sum();
        let trace2: f64 = deg.iter().map(|&d| d * d + d).sum();
        let s1: f64 = eig.iter().sum();
        let s2: f64 = eig.iter().map(|&l| l * l).sum();
        prop_assert!((s1 - trace).abs() < 1e-6 * trace.max(1.0), "Σλ {} vs Σd {}", s1, trace);
        prop_assert!((s2 - trace2).abs() < 1e-5 * trace2.max(1.0), "Σλ² {} vs {}", s2, trace2);
    }
}

/// The eigensolver ablation as a gate: on the small tier, Lanczos (the
/// solver the battery uses) and power iteration with deflation (the method
/// the paper names) agree on the top 8 Laplacian eigenvalues to < 1e-4
/// relative. The `ablation_eigensolver` bench times the same pair.
#[test]
fn lanczos_agrees_with_power_iteration_on_small_tier() {
    use rand::SeedableRng;
    use verified_net::{Dataset, SynthesisConfig};
    use vnet_spectral::power_iteration_topk;
    let ctx = vnet_ctx::AnalysisCtx::quiet();
    let ds = Dataset::build(&SynthesisConfig::small(), &ctx);
    let lap = SymLaplacian::from_digraph(&ds.graph);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let lanczos = lanczos_topk(&lap, 8, 60, &mut rng, &ctx);
    let power = power_iteration_topk(&lap, 8, 1e-10, 2_000, &mut rng);
    assert_eq!((lanczos.len(), power.len()), (8, 8));
    for (i, (l, p)) in lanczos.iter().zip(&power).enumerate() {
        let rel = ((l - p) / l.max(1e-9)).abs();
        assert!(rel < 1e-4, "eigenvalue {i}: lanczos {l} vs power {p} (rel {rel:e})");
    }
}
