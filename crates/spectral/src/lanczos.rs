//! Lanczos iteration with full reorthogonalization.
//!
//! Each step orthogonalizes the new Lanczos vector against the whole basis
//! by one classical Gram–Schmidt (CGS) pass, `c = Qᵀw` then `w −= Q·c`,
//! and repeats the pass only when the Daniel–Gragg–Kaufman–Stewart (DGKS)
//! test reports cancellation (ARPACK's `dsaitr` rule). Both halves of a
//! pass stream the basis once and fan out over the context's `vnet-par`
//! pool with a thread-count-independent decomposition (see
//! `reorthogonalize`).

use crate::laplacian::SymLaplacian;
use crate::tridiag::tridiag_eigenvalues;
use rand::Rng;
use vnet_ctx::AnalysisCtx;
use vnet_par::{ParPool, ParStats};

/// Basis vectors per task in the coefficient half (`c = Qᵀw`) of a
/// Gram–Schmidt pass. Each coefficient is one full sequential dot product,
/// so the split only decides which worker computes it.
const COEF_CHUNK: usize = 16;

/// Rows of `w` per task in the update half (`w −= Q·c`) of a Gram–Schmidt
/// pass: 8 KiB of `w`, which stays in L1 while the basis rows stream past.
/// Every row subtracts the projections in basis order, so the split cannot
/// change any output bit.
const REORTH_ROW_CHUNK: usize = 1024;

/// Basis vectors the coefficient and update kernels stream together (see
/// [`dots_into`] and [`subtract_projections`]). The loop is bound by memory
/// bandwidth; eight concurrent streams keep more loads in flight than one
/// and read `w` once per group instead of once per basis vector.
const LANES: usize = 8;

/// Approximate the largest `k` eigenvalues of the Laplacian with `steps`
/// Lanczos iterations (full reorthogonalization), returned in *descending*
/// order.
///
/// `steps` should comfortably exceed `k` (a 2–3× margin is typical); it is
/// clamped to the operator dimension, in which case the Ritz values are
/// exact eigenvalues up to the tridiagonal tolerance.
///
/// Full reorthogonalization eliminates the ghost eigenvalue problem, which
/// matters here: the power-law fit of Section IV-B is on the eigenvalue
/// *distribution*, and spurious duplicates would bias the tail weight. It
/// costs one classical Gram–Schmidt pass per step — `O(steps² · n)` in
/// total, two streams over the basis per step — plus a second pass on the
/// steps where the DGKS test detects cancellation.
///
/// The canonical context-taking entrypoint: the operator application (see
/// [`SymLaplacian::matvec_into_pool`]) and both halves of every
/// Gram–Schmidt pass fan out over the context's pool. Each output element
/// is computed by one task in a fixed order — a row of `L v`, a full
/// sequential dot product, a row of `w −= Q·c` — so the Ritz values are
/// **bitwise identical** at any thread count. The three-term recurrence
/// and the norms stay on the caller's thread. Work counters
/// (`algo.lanczos.*`) and par accounting (stage `lanczos`) land on the
/// context's observability handle.
pub fn lanczos_topk<R: Rng + ?Sized>(
    op: &SymLaplacian,
    k: usize,
    steps: usize,
    rng: &mut R,
    ctx: &AnalysisCtx,
) -> Vec<f64> {
    let started = std::time::Instant::now();
    let (ev, stats, par) = lanczos_topk_impl(op, k, steps, rng, ctx.pool(), ctx.scratch());
    let obs = ctx.obs();
    obs.set_counter("algo.lanczos.matvecs", &[], stats.matvecs);
    obs.set_counter("algo.lanczos.reorth_projections", &[], stats.reorth_projections);
    obs.set_counter("algo.lanczos.restarts", &[], stats.restarts);
    ctx.record_par("lanczos", &par);
    ctx.observe_par_wall("lanczos", started.elapsed().as_micros() as u64);
    ev
}

/// Work counters from a Lanczos run, for observability manifests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LanczosStats {
    /// Operator applications (`matvec_into` calls).
    pub matvecs: u64,
    /// Basis-vector projections removed during reorthogonalization: the
    /// basis length, once per Gram–Schmidt pass.
    pub reorth_projections: u64,
    /// Invariant-subspace restarts with a fresh random direction.
    pub restarts: u64,
}

fn lanczos_topk_impl<R: Rng + ?Sized>(
    op: &SymLaplacian,
    k: usize,
    steps: usize,
    rng: &mut R,
    pool: &ParPool,
    scratch: &vnet_ctx::ScratchArena,
) -> (Vec<f64>, LanczosStats, ParStats) {
    let mut stats = LanczosStats::default();
    let mut par_stats = ParStats::default();
    let n = op.dim();
    if n == 0 || k == 0 {
        return (Vec::new(), stats, par_stats);
    }
    let m = steps.max(k).min(n);

    // Random unit start vector. All dense working vectors (the iterate,
    // the mat-vec target, and each basis vector) come from the scratch
    // arena and are filled before use, so reuse is invisible to numerics.
    let mut v = scratch.take_f64(n);
    for x in v.iter_mut() {
        *x = rng.random::<f64>() - 0.5;
    }
    normalize(&mut v);

    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut alpha: Vec<f64> = Vec::with_capacity(m);
    let mut beta: Vec<f64> = Vec::with_capacity(m.saturating_sub(1));
    let mut w = scratch.take_f64(n);
    let mut coeffs = vec![0.0f64; m];

    for j in 0..m {
        let mut snapshot = scratch.take_f64(n);
        snapshot.copy_from_slice(&v);
        basis.push(snapshot);
        par_stats.merge(op.matvec_into_pool(&v, &mut w, pool));
        stats.matvecs += 1;
        let a = dot(&w, &v);
        alpha.push(a);
        // w -= a v + beta_{j-1} v_{j-1}
        for i in 0..n {
            w[i] -= a * v[i];
        }
        if j > 0 {
            let b_prev = beta[j - 1];
            let v_prev = &basis[j - 1];
            for i in 0..n {
                w[i] -= b_prev * v_prev[i];
            }
        }
        let (b, passes) = reorthogonalize(&mut w, &basis, &mut coeffs, pool, &mut par_stats);
        stats.reorth_projections += (passes * basis.len()) as u64;
        if j + 1 == m {
            break;
        }
        if b < 1e-12 {
            // Invariant subspace exhausted: restart with a fresh random
            // direction orthogonal to the current basis. The previous
            // iterate is already snapshotted into `basis`, so `v` can be
            // overwritten in place.
            stats.restarts += 1;
            for x in v.iter_mut() {
                *x = rng.random::<f64>() - 0.5;
            }
            let (fb, passes) = reorthogonalize(&mut v, &basis, &mut coeffs, pool, &mut par_stats);
            stats.reorth_projections += (passes * basis.len()) as u64;
            if fb < 1e-12 {
                break; // space exhausted (n small)
            }
            for x in &mut v {
                *x /= fb;
            }
            beta.push(0.0);
        } else {
            beta.push(b);
            for (x, &wx) in v.iter_mut().zip(w.iter()) {
                *x = wx / b;
            }
        }
    }

    // Recycle the working set; the bounded arena keeps what fits.
    scratch.put_f64(v);
    scratch.put_f64(w);
    for q in basis {
        scratch.put_f64(q);
    }

    let mut ev = tridiag_eigenvalues(&alpha, &beta, 1e-10);
    ev.reverse(); // descending
    ev.truncate(k);
    // Laplacian eigenvalues are nonnegative; clip tiny negatives from
    // bisection tolerance.
    for x in &mut ev {
        if *x < 0.0 && *x > -1e-8 {
            *x = 0.0;
        }
    }
    (ev, stats, par_stats)
}

/// Orthogonalize `w` against the orthonormal `basis` by classical
/// Gram–Schmidt with the DGKS re-pass test: a second pass runs only when
/// the first removed so much of `w` that `‖w_after‖ ≤ ‖w_before‖/√2`, i.e.
/// when cancellation may have left rounding-level components along the
/// basis. Returns `‖w‖` after the last pass and the number of passes (1 or
/// 2). `coeffs` is scratch of at least `basis.len()` entries.
fn reorthogonalize(
    w: &mut [f64],
    basis: &[Vec<f64>],
    coeffs: &mut [f64],
    pool: &ParPool,
    par_stats: &mut ParStats,
) -> (f64, usize) {
    let before = norm(w);
    par_stats.merge(cgs_pass(w, basis, coeffs, pool));
    let after = norm(w);
    if after > before * std::f64::consts::FRAC_1_SQRT_2 {
        return (after, 1);
    }
    par_stats.merge(cgs_pass(w, basis, coeffs, pool));
    (norm(w), 2)
}

/// One classical Gram–Schmidt pass: `c = Qᵀw`, then `w −= Q·c`. The
/// coefficient half splits over [`COEF_CHUNK`] basis vectors per task and
/// the update half over [`REORTH_ROW_CHUNK`] rows per task; neither split
/// depends on the thread count, and neither reorders any element's
/// arithmetic.
fn cgs_pass(w: &mut [f64], basis: &[Vec<f64>], coeffs: &mut [f64], pool: &ParPool) -> ParStats {
    let coeffs = &mut coeffs[..basis.len()];
    let w_ro: &[f64] = w;
    let mut par_stats = pool.for_each_chunk_mut(coeffs, COEF_CHUNK, |_task, offset, chunk| {
        dots_into(w_ro, &basis[offset..offset + chunk.len()], chunk);
    });
    let c_ro: &[f64] = coeffs;
    par_stats.merge(
        pool.for_each_chunk_mut(w, REORTH_ROW_CHUNK, |_task, offset, chunk| {
            subtract_projections(chunk, offset, basis, c_ro);
        }),
    );
    par_stats
}

/// `out[i] = w · qs[i]`, each one sequential sum in row order, as in
/// [`dot`]. The basis vectors go [`LANES`] at a time through one sweep of
/// `w`, one accumulator each.
fn dots_into(w: &[f64], qs: &[Vec<f64>], out: &mut [f64]) {
    let n = w.len();
    let mut groups = qs.chunks_exact(LANES);
    let mut outs = out.chunks_exact_mut(LANES);
    for (g, o) in (&mut groups).zip(&mut outs) {
        let q: [&[f64]; LANES] = std::array::from_fn(|l| &g[l][..n]);
        let mut acc = [0.0f64; LANES];
        for (r, &x) in w.iter().enumerate() {
            for (a, ql) in acc.iter_mut().zip(&q) {
                *a += x * ql[r];
            }
        }
        o.copy_from_slice(&acc);
    }
    for (q, o) in groups.remainder().iter().zip(outs.into_remainder()) {
        *o = dot(w, q);
    }
}

/// `chunk −= Σᵢ c[i] · qs[i][offset..]` for the rows of `w` that `chunk`
/// covers, [`LANES`] basis vectors per sweep. Each row subtracts the
/// projections one at a time in basis order, so the grouping (like the row
/// chunking) cannot change any output bit.
fn subtract_projections(chunk: &mut [f64], offset: usize, qs: &[Vec<f64>], c: &[f64]) {
    let rows = offset..offset + chunk.len();
    let mut groups = qs.chunks_exact(LANES);
    let mut cs = c.chunks_exact(LANES);
    for (g, c) in (&mut groups).zip(&mut cs) {
        let q: [&[f64]; LANES] = std::array::from_fn(|l| &g[l][rows.clone()]);
        for (r, x) in chunk.iter_mut().enumerate() {
            let mut y = *x;
            for (&cl, ql) in c.iter().zip(&q) {
                y -= cl * ql[r];
            }
            *x = y;
        }
    }
    for (q, &c) in groups.remainder().iter().zip(cs.remainder()) {
        for (x, &qx) in chunk.iter_mut().zip(&q[rows.clone()]) {
            *x -= c * qx;
        }
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

fn normalize(a: &mut [f64]) {
    let n = norm(a);
    if n > 0.0 {
        for x in a.iter_mut() {
            *x /= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vnet_graph::builder::from_edges;
    use vnet_graph::GraphBuilder;

    #[test]
    fn path_graph_full_spectrum() {
        // Undirected path P4 Laplacian eigenvalues: 2 - 2cos(kπ/4)... i.e.
        // 4 sin²(kπ/8): {0, 0.586, 2, 3.414}.
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let l = SymLaplacian::from_digraph(&g);
        let mut rng = StdRng::seed_from_u64(2);
        let ev = lanczos_topk(&l, 4, 4, &mut rng, &AnalysisCtx::quiet());
        let expect = [3.414_213_562, 2.0, 0.585_786_437, 0.0];
        for (got, want) in ev.iter().zip(expect) {
            assert!((got - want).abs() < 1e-6, "got {got} want {want}");
        }
    }

    #[test]
    fn complete_graph_spectrum() {
        // K5 Laplacian: eigenvalue n=5 with multiplicity 4, and 0.
        let n = 5u32;
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    b.add_edge(i, j).unwrap();
                }
            }
        }
        let l = SymLaplacian::from_digraph(&b.build());
        let mut rng = StdRng::seed_from_u64(3);
        let ev = lanczos_topk(&l, 5, 5, &mut rng, &AnalysisCtx::quiet());
        for &x in &ev[..4] {
            assert!((x - 5.0).abs() < 1e-6, "got {x}");
        }
        assert!(ev[4].abs() < 1e-6);
    }

    #[test]
    fn star_graph_top_eigenvalue() {
        // Star K_{1,n-1}: λ_max = n.
        let n = 30u32;
        let mut b = GraphBuilder::new(n);
        for leaf in 1..n {
            b.add_edge(0, leaf).unwrap();
        }
        let l = SymLaplacian::from_digraph(&b.build());
        let mut rng = StdRng::seed_from_u64(4);
        let ev = lanczos_topk(&l, 3, 25, &mut rng, &AnalysisCtx::quiet());
        assert!((ev[0] - n as f64).abs() < 1e-6, "λmax={} want {n}", ev[0]);
        // The middle of the spectrum is all 1's for a star.
        assert!((ev[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn topk_truncates_and_descends() {
        let g = from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0)])
            .unwrap();
        let l = SymLaplacian::from_digraph(&g);
        let mut rng = StdRng::seed_from_u64(5);
        let ev = lanczos_topk(&l, 3, 8, &mut rng, &AnalysisCtx::quiet());
        assert_eq!(ev.len(), 3);
        for w in ev.windows(2) {
            assert!(w[0] >= w[1] - 1e-9);
        }
    }

    #[test]
    fn eigenvalues_bounded_by_two_dmax() {
        let g = from_edges(7, &[(0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (5, 6), (1, 2)]).unwrap();
        let l = SymLaplacian::from_digraph(&g);
        let mut rng = StdRng::seed_from_u64(6);
        let ev = lanczos_topk(&l, 7, 7, &mut rng, &AnalysisCtx::quiet());
        for &x in &ev {
            assert!(x >= -1e-9 && x <= 2.0 * l.max_degree() + 1e-9);
        }
    }

    #[test]
    fn disconnected_graph_multiple_zero_eigenvalues() {
        // Two disjoint undirected edges → two zero eigenvalues.
        let g = from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let l = SymLaplacian::from_digraph(&g);
        let mut rng = StdRng::seed_from_u64(7);
        let ev = lanczos_topk(&l, 4, 4, &mut rng, &AnalysisCtx::quiet());
        // Spectrum: {2, 2, 0, 0}
        assert!((ev[0] - 2.0).abs() < 1e-6);
        assert!((ev[1] - 2.0).abs() < 1e-6);
        assert!(ev[2].abs() < 1e-6);
        assert!(ev[3].abs() < 1e-6);
    }

    #[test]
    fn pool_ritz_values_bitwise_equal_serial_across_thread_counts() {
        // Enough rows for several mat-vec and reorthogonalization row
        // chunks, and enough steps for several coefficient tasks with a
        // ragged last group, so every split is exercised.
        let n = 13_000u32;
        assert!(n as usize > 3 * crate::laplacian::ROW_CHUNK.max(REORTH_ROW_CHUNK));
        let edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|i| [(i, (i * 17 + 3) % n), (i, (i + 1) % n), (i, (i * 101 + 7) % n)])
            .filter(|(a, b)| a != b)
            .collect();
        let g = from_edges(n, &edges).unwrap();
        let l = SymLaplacian::from_digraph(&g);
        let steps = 2 * COEF_CHUNK + 3;
        let run = |threads: usize| {
            let mut rng = StdRng::seed_from_u64(11);
            lanczos_topk(&l, 6, steps, &mut rng, &AnalysisCtx::with_threads(threads))
        };
        let reference = run(1);
        assert_eq!(reference.len(), 6);
        for threads in [2, 4, 7] {
            let ev = run(threads);
            assert!(
                reference.iter().zip(&ev).all(|(a, b)| a.to_bits() == b.to_bits()),
                "threads={threads}"
            );
        }
    }

    /// An orthonormal basis of `m` random vectors in `R^n` (modified
    /// Gram–Schmidt, twice), built independently of the kernel under test.
    fn random_orthonormal_basis(n: usize, m: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut basis: Vec<Vec<f64>> = Vec::with_capacity(m);
        for _ in 0..m {
            let mut q: Vec<f64> = (0..n).map(|_| rng.random::<f64>() - 0.5).collect();
            for _ in 0..2 {
                for b in &basis {
                    let c = dot(&q, b);
                    for (x, &y) in q.iter_mut().zip(b) {
                        *x -= c * y;
                    }
                }
            }
            normalize(&mut q);
            basis.push(q);
        }
        basis
    }

    /// `max_i |q_i · w| / ‖w‖`: how far `w` is from orthogonal to `basis`.
    fn max_rel_overlap(w: &[f64], basis: &[Vec<f64>]) -> f64 {
        let nw = norm(w);
        basis.iter().map(|q| dot(q, w).abs() / nw).fold(0.0, f64::max)
    }

    #[test]
    fn dgks_repass_restores_orthogonality_after_cancellation() {
        let n = 3 * REORTH_ROW_CHUNK + 37;
        let m = 2 * COEF_CHUNK + 3;
        let basis = random_orthonormal_basis(n, m, 21);
        // w lies in span(Q) up to a 1e-9 perturbation: one pass cancels
        // almost all of it, leaving rounding-level components along Q that
        // are large relative to what remains.
        let mut rng = StdRng::seed_from_u64(22);
        let mut w0 = vec![0.0f64; n];
        for (i, q) in basis.iter().enumerate() {
            for (x, &y) in w0.iter_mut().zip(q) {
                *x += (1.0 + i as f64) * y;
            }
        }
        for x in &mut w0 {
            *x += 1e-9 * (rng.random::<f64>() - 0.5);
        }
        let mut coeffs = vec![0.0f64; m];

        let mut once = w0.clone();
        cgs_pass(&mut once, &basis, &mut coeffs, &ParPool::serial());
        assert!(max_rel_overlap(&once, &basis) > 1e-12, "one pass already orthogonal");

        let mut reference: Option<Vec<f64>> = None;
        for threads in [1, 2, 4, 7] {
            let mut w = w0.clone();
            let mut par = ParStats::default();
            let (nw, passes) =
                reorthogonalize(&mut w, &basis, &mut coeffs, &ParPool::new(threads), &mut par);
            assert_eq!(passes, 2, "DGKS re-pass did not run at threads={threads}");
            assert_eq!(nw.to_bits(), norm(&w).to_bits());
            let overlap = max_rel_overlap(&w, &basis);
            assert!(overlap < 1e-12, "threads={threads}: overlap {overlap:e}");
            match &reference {
                None => reference = Some(w),
                Some(r) => assert!(
                    r.iter().zip(&w).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "threads={threads}"
                ),
            }
        }
    }

    #[test]
    fn dgks_skips_repass_without_cancellation() {
        let n = 2 * REORTH_ROW_CHUNK + 5;
        let basis = random_orthonormal_basis(n, COEF_CHUNK + 1, 31);
        let mut rng = StdRng::seed_from_u64(32);
        let mut w: Vec<f64> = (0..n).map(|_| rng.random::<f64>() - 0.5).collect();
        let mut coeffs = vec![0.0f64; basis.len()];
        let (_, passes) = reorthogonalize(
            &mut w,
            &basis,
            &mut coeffs,
            &ParPool::serial(),
            &mut ParStats::default(),
        );
        assert_eq!(passes, 1);
        assert!(max_rel_overlap(&w, &basis) < 1e-12);
    }

    #[test]
    fn empty_inputs() {
        let l = SymLaplacian::from_digraph(&vnet_graph::DiGraph::empty(0));
        let mut rng = StdRng::seed_from_u64(8);
        assert!(lanczos_topk(&l, 5, 10, &mut rng, &AnalysisCtx::quiet()).is_empty());
        let l2 = SymLaplacian::from_digraph(&vnet_graph::DiGraph::empty(3));
        assert!(lanczos_topk(&l2, 0, 10, &mut rng, &AnalysisCtx::quiet()).is_empty());
    }
}
