//! Parametric distributions with PDFs, CDFs, quantiles and samplers.
//!
//! The paper's inference machinery needs the normal (Vuong test, PELT cost),
//! chi-squared (portmanteau tests), Student-t (spline bands), plus the
//! candidate heavy-tail alternatives of Section IV-B: log-normal,
//! exponential and Poisson.

use crate::special::{beta_inc, erf, erfc, gamma_p, gamma_q, ln_factorial};
use rand::Rng;

/// Standard normal PDF `φ(z)`.
pub fn norm_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal CDF `Φ(z)`, full tail precision via `erfc`.
pub fn norm_cdf(z: f64) -> f64 {
    0.5 * erfc(-z / std::f64::consts::SQRT_2)
}

/// Standard normal survival function `1 − Φ(z)` with tail precision.
pub fn norm_sf(z: f64) -> f64 {
    0.5 * erfc(z / std::f64::consts::SQRT_2)
}

/// Standard normal quantile (inverse CDF) via the Acklam rational
/// approximation refined by one Halley step; absolute error < 1e-9.
pub fn norm_ppf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "norm_ppf domain: 0 < p < 1");
    // Acklam's coefficients.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    // One Halley refinement step.
    let e = norm_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Chi-squared CDF with `k` degrees of freedom.
pub fn chi2_cdf(x: f64, k: f64) -> f64 {
    assert!(k > 0.0, "chi2_cdf: k > 0");
    if x <= 0.0 {
        0.0
    } else {
        gamma_p(k / 2.0, x / 2.0)
    }
}

/// Chi-squared survival function `1 − F(x)` with full tail precision — this
/// is what turns a Ljung-Box statistic into the paper's 10⁻³⁸-scale p-value.
pub fn chi2_sf(x: f64, k: f64) -> f64 {
    assert!(k > 0.0, "chi2_sf: k > 0");
    if x <= 0.0 {
        1.0
    } else {
        gamma_q(k / 2.0, x / 2.0)
    }
}

/// Student-t CDF with `nu` degrees of freedom.
pub fn student_t_cdf(t: f64, nu: f64) -> f64 {
    assert!(nu > 0.0, "student_t_cdf: nu > 0");
    let x = nu / (nu + t * t);
    let p = 0.5 * beta_inc(nu / 2.0, 0.5, x);
    if t >= 0.0 {
        1.0 - p
    } else {
        p
    }
}

/// Two-sided Student-t critical value `t_{α/2, nu}` found by bisection.
pub fn student_t_ppf(p: f64, nu: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "student_t_ppf domain: 0 < p < 1");
    // Bracket then bisect; the CDF is monotone.
    let (mut lo, mut hi) = (-1e3, 1e3);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if student_t_cdf(mid, nu) < p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// A continuous exponential distribution `Exp(λ)` over `x >= xmin`.
///
/// The shifted form is what the power-law machinery fits as an alternative
/// hypothesis: density `λ e^{−λ(x − xmin)}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    /// Rate parameter λ.
    pub lambda: f64,
    /// Left truncation point.
    pub xmin: f64,
}

impl Exponential {
    /// Maximum-likelihood fit over `data` (all values must be `>= xmin`).
    pub fn mle(data: &[f64], xmin: f64) -> crate::Result<Self> {
        if data.is_empty() {
            return Err(crate::StatsError::EmptyInput);
        }
        let mean_excess = data.iter().map(|&x| x - xmin).sum::<f64>() / data.len() as f64;
        if mean_excess <= 0.0 {
            return Err(crate::StatsError::InvalidParameter("all data at xmin"));
        }
        Ok(Self {
            lambda: 1.0 / mean_excess,
            xmin,
        })
    }

    /// Log-density at `x`.
    pub fn ln_pdf(&self, x: f64) -> f64 {
        if x < self.xmin {
            f64::NEG_INFINITY
        } else {
            self.lambda.ln() - self.lambda * (x - self.xmin)
        }
    }

    /// CDF at `x` (0 below `xmin`).
    pub fn cdf(&self, x: f64) -> f64 {
        if x < self.xmin {
            0.0
        } else {
            1.0 - (-self.lambda * (x - self.xmin)).exp()
        }
    }

    /// Draw one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.random::<f64>();
        self.xmin - (1.0 - u).ln() / self.lambda
    }
}

/// A log-normal distribution truncated to `x >= xmin`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    /// Location of ln X.
    pub mu: f64,
    /// Scale of ln X.
    pub sigma: f64,
    /// Left truncation point (> 0).
    pub xmin: f64,
}

impl LogNormal {
    /// Maximum-likelihood fit of the *truncated* log-normal over data
    /// `>= xmin`, by profile likelihood over (μ, σ) with a coarse-to-fine
    /// grid (truncation makes the closed form inapplicable).
    pub fn mle(data: &[f64], xmin: f64) -> crate::Result<Self> {
        if data.is_empty() {
            return Err(crate::StatsError::EmptyInput);
        }
        if xmin <= 0.0 {
            return Err(crate::StatsError::InvalidParameter("xmin must be > 0"));
        }
        let logs: Vec<f64> = data.iter().map(|&x| x.max(xmin).ln()).collect();
        // ln x of every point, once per fit rather than once per candidate.
        let ln_data: Vec<f64> = data.iter().map(|&x| x.ln()).collect();
        let m0 = crate::descriptive::mean(&logs).unwrap_or(0.0);
        let s0 = crate::descriptive::stddev(&logs).unwrap_or(1.0).max(1e-3);
        // Coarse-to-fine grid search around untruncated estimates.
        let mut best = (m0, s0, f64::NEG_INFINITY);
        let mut center = (m0, s0);
        let mut span = (4.0 * s0.max(0.5), 2.0 * s0.max(0.5));
        for _ in 0..6 {
            for i in 0..21 {
                for j in 0..21 {
                    let mu = center.0 - span.0 + 2.0 * span.0 * i as f64 / 20.0;
                    let sigma = (center.1 - span.1 + 2.0 * span.1 * j as f64 / 20.0).max(1e-4);
                    let cand = LogNormal { mu, sigma, xmin };
                    let ll = cand.ln_likelihood(data, &ln_data);
                    if ll > best.2 {
                        best = (mu, sigma, ll);
                    }
                }
            }
            center = (best.0, best.1);
            span = (span.0 / 4.0, span.1 / 4.0);
        }
        Ok(Self {
            mu: best.0,
            sigma: best.1,
            xmin,
        })
    }

    /// Log-density of the truncated log-normal at `x`.
    pub fn ln_pdf(&self, x: f64) -> f64 {
        self.ln_pdf_with(x, x.ln(), self.ln_normalizer())
    }

    /// `Σ ln_pdf(x)` over `data`, bit for bit, given `ln_data[i] =
    /// data[i].ln()`: the normalizer is computed once per candidate
    /// instead of once per point.
    fn ln_likelihood(&self, data: &[f64], ln_data: &[f64]) -> f64 {
        let norm = self.ln_normalizer();
        data.iter().zip(ln_data).map(|(&x, &ln_x)| self.ln_pdf_with(x, ln_x, norm)).sum()
    }

    /// The per-candidate terms of [`ln_pdf`](Self::ln_pdf): `ln σ` and the
    /// log of the normalizing mass `P(X >= xmin)` under the untruncated
    /// law, `None` when that mass is not positive.
    fn ln_normalizer(&self) -> (f64, Option<f64>) {
        let tail = 0.5 * erfc((self.xmin.ln() - self.mu) / (self.sigma * std::f64::consts::SQRT_2));
        (self.sigma.ln(), if tail <= 0.0 { None } else { Some(tail.ln()) })
    }

    /// [`ln_pdf`](Self::ln_pdf) at `x` from `ln_x = x.ln()` and the
    /// candidate's [`ln_normalizer`](Self::ln_normalizer).
    fn ln_pdf_with(&self, x: f64, ln_x: f64, (ln_sigma, ln_tail): (f64, Option<f64>)) -> f64 {
        if x < self.xmin {
            return f64::NEG_INFINITY;
        }
        let Some(ln_tail) = ln_tail else {
            return f64::NEG_INFINITY;
        };
        let z = (ln_x - self.mu) / self.sigma;
        -ln_x - ln_sigma - 0.5 * (2.0 * std::f64::consts::PI).ln() - 0.5 * z * z - ln_tail
    }

    /// CDF of the truncated law at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        if x < self.xmin {
            return 0.0;
        }
        let f = |v: f64| 0.5 * (1.0 + erf((v.ln() - self.mu) / (self.sigma * std::f64::consts::SQRT_2)));
        let fx = f(x);
        let fm = f(self.xmin);
        ((fx - fm) / (1.0 - fm)).clamp(0.0, 1.0)
    }
}

/// A Poisson distribution truncated to `k >= xmin`, one of the paper's
/// discrete alternative hypotheses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    /// Mean parameter λ.
    pub lambda: f64,
    /// Left truncation (integer-valued, as f64 for interface symmetry).
    pub xmin: f64,
}

impl Poisson {
    /// Maximum-likelihood fit of the truncated Poisson by 1-D golden-section
    /// search on λ.
    pub fn mle(data: &[f64], xmin: f64) -> crate::Result<Self> {
        if data.is_empty() {
            return Err(crate::StatsError::EmptyInput);
        }
        let mean = crate::descriptive::mean(data).unwrap();
        let ll = |lambda: f64| -> f64 {
            let p = Poisson { lambda, xmin };
            data.iter().map(|&x| p.ln_pmf(x)).sum()
        };
        // Golden-section maximize over a generous bracket.
        let (mut a, mut b) = (1e-6, (4.0 * mean).max(10.0));
        let phi = (5.0_f64.sqrt() - 1.0) / 2.0;
        let (mut c, mut d) = (b - phi * (b - a), a + phi * (b - a));
        let (mut fc, mut fd) = (ll(c), ll(d));
        for _ in 0..120 {
            if fc > fd {
                b = d;
                d = c;
                fd = fc;
                c = b - phi * (b - a);
                fc = ll(c);
            } else {
                a = c;
                c = d;
                fc = fd;
                d = a + phi * (b - a);
                fd = ll(d);
            }
        }
        Ok(Self {
            lambda: 0.5 * (a + b),
            xmin,
        })
    }

    /// Log-PMF of the truncated Poisson at integer `k` (passed as f64).
    pub fn ln_pmf(&self, k: f64) -> f64 {
        if k < self.xmin || k < 0.0 {
            return f64::NEG_INFINITY;
        }
        let k_int = k.round();
        // ln P(K = k) − ln P(K >= xmin); survival via regularized gamma:
        // P(K >= m) = P_gamma(m, λ) (lower regularized at integer m).
        let ln_num = -self.lambda + k_int * self.lambda.ln() - ln_factorial(k_int as u64);
        let m = self.xmin.ceil().max(0.0);
        let tail = if m <= 0.0 { 1.0 } else { gamma_p(m, self.lambda) };
        if tail <= 0.0 {
            return f64::NEG_INFINITY;
        }
        ln_num - tail.ln()
    }
}

/// Draw a standard-normal variate via Box-Muller (polar form).
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.random::<f64>() * 2.0 - 1.0;
        let v: f64 = rng.random::<f64>() * 2.0 - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Draw a Poisson(λ) variate. Knuth's method for small λ, normal
/// approximation with continuity correction for large λ.
pub fn sample_poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    assert!(lambda >= 0.0, "sample_poisson: lambda >= 0");
    if lambda < 30.0 {
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.random::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    } else {
        let z = sample_standard_normal(rng);
        (lambda + lambda.sqrt() * z).round().max(0.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn norm_cdf_symmetry_and_known_values() {
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-14);
        assert!((norm_cdf(1.959_963_984_540_054) - 0.975).abs() < 1e-9);
        for &z in &[0.3, 1.0, 2.5] {
            assert!((norm_cdf(z) + norm_cdf(-z) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn norm_ppf_inverts_cdf() {
        for &p in &[1e-6, 0.01, 0.3, 0.5, 0.9, 0.999, 1.0 - 1e-9] {
            let z = norm_ppf(p);
            assert!((norm_cdf(z) - p).abs() < 1e-9, "p={p}");
        }
    }

    #[test]
    fn chi2_cdf_against_known_quantiles() {
        // 95th percentile of chi2(1) is 3.841458..., of chi2(10) is 18.307...
        assert!((chi2_cdf(3.841_458_820_694_124, 1.0) - 0.95).abs() < 1e-9);
        assert!((chi2_cdf(18.307_038_053_275_14, 10.0) - 0.95).abs() < 1e-9);
    }

    #[test]
    fn chi2_sf_deep_tail() {
        // Q(200; k=10) is astronomically small but must stay positive.
        let p = chi2_sf(200.0, 10.0);
        assert!(p > 0.0 && p < 1e-35);
    }

    #[test]
    fn student_t_limits_to_normal() {
        // With huge nu the t CDF approaches the normal CDF.
        for &t in &[-2.0, -0.5, 0.0, 1.0, 2.5] {
            assert!((student_t_cdf(t, 1e7) - norm_cdf(t)).abs() < 1e-5);
        }
    }

    #[test]
    fn student_t_known_value() {
        // P(T <= 2.228) for nu=10 ≈ 0.975 (classic table value 2.228139).
        assert!((student_t_cdf(2.228_138_851_986_273, 10.0) - 0.975).abs() < 1e-7);
    }

    #[test]
    fn student_t_ppf_roundtrip() {
        for &(p, nu) in &[(0.975, 5.0), (0.8, 30.0), (0.05, 12.0)] {
            let t = student_t_ppf(p, nu);
            assert!((student_t_cdf(t, nu) - p).abs() < 1e-8);
        }
    }

    #[test]
    fn exponential_mle_recovers_rate() {
        let mut rng = StdRng::seed_from_u64(7);
        let truth = Exponential { lambda: 0.8, xmin: 3.0 };
        let data: Vec<f64> = (0..20_000).map(|_| truth.sample(&mut rng)).collect();
        let fit = Exponential::mle(&data, 3.0).unwrap();
        assert!((fit.lambda - 0.8).abs() < 0.02, "lambda={}", fit.lambda);
    }

    #[test]
    fn exponential_cdf_monotone() {
        let e = Exponential { lambda: 1.5, xmin: 1.0 };
        assert_eq!(e.cdf(0.5), 0.0);
        assert!(e.cdf(2.0) < e.cdf(3.0));
        assert!(e.cdf(100.0) > 0.999);
    }

    #[test]
    fn lognormal_lnpdf_integrates_to_one() {
        // Crude trapezoid check that the truncated density is normalized.
        let ln = LogNormal { mu: 1.0, sigma: 0.5, xmin: 1.5 };
        let mut integral = 0.0;
        let n = 40_000;
        let hi = 120.0;
        let h = (hi - ln.xmin) / n as f64;
        for i in 0..n {
            let x = ln.xmin + (i as f64 + 0.5) * h;
            integral += ln.ln_pdf(x).exp() * h;
        }
        assert!((integral - 1.0).abs() < 1e-3, "integral={integral}");
    }

    #[test]
    fn lognormal_mle_recovers_parameters() {
        let mut rng = StdRng::seed_from_u64(11);
        // Sample untruncated lognormal(mu=2, sigma=0.7), truncate at 1.0.
        let data: Vec<f64> = (0..30_000)
            .map(|_| (2.0 + 0.7 * sample_standard_normal(&mut rng)).exp())
            .filter(|&x| x >= 1.0)
            .collect();
        let fit = LogNormal::mle(&data, 1.0).unwrap();
        assert!((fit.mu - 2.0).abs() < 0.1, "mu={}", fit.mu);
        assert!((fit.sigma - 0.7).abs() < 0.1, "sigma={}", fit.sigma);
    }

    #[test]
    fn lognormal_hoisted_likelihood_matches_ln_pdf_sum_bitwise() {
        let xmin = 1.5;
        let above: [f64; 9] = [1.5, 1.75, 2.0, 3.25, 7.0, 19.5, 42.0, 120.0, 1e4];
        let mut with_below = above.to_vec();
        with_below.insert(3, 1.25);
        // The last candidate's tail mass underflows to 0: erfc(~707) = 0.
        let candidates = [(0.5, 0.3), (1.0, 0.5), (2.0, 1.7), (-3.0, 0.05), (-1000.0, 1.0)];
        let (mu, sigma) = candidates[candidates.len() - 1];
        assert!(0.5 * erfc((f64::ln(xmin) - mu) / (sigma * std::f64::consts::SQRT_2)) <= 0.0);
        for data in [&above[..], &with_below[..]] {
            let ln_data: Vec<f64> = data.iter().map(|&x| x.ln()).collect();
            for &(mu, sigma) in &candidates {
                let cand = LogNormal { mu, sigma, xmin };
                let direct: f64 = data.iter().map(|&x| cand.ln_pdf(x)).sum();
                let hoisted = cand.ln_likelihood(data, &ln_data);
                assert_eq!(hoisted.to_bits(), direct.to_bits(), "mu={mu} sigma={sigma} {data:?}");
            }
        }
    }

    #[test]
    fn poisson_lnpmf_sums_to_one() {
        let p = Poisson { lambda: 6.0, xmin: 2.0 };
        let total: f64 = (2..200).map(|k| p.ln_pmf(k as f64).exp()).sum();
        assert!((total - 1.0).abs() < 1e-9, "total={total}");
    }

    #[test]
    fn poisson_mle_recovers_lambda() {
        let mut rng = StdRng::seed_from_u64(3);
        let data: Vec<f64> = (0..20_000)
            .map(|_| sample_poisson(&mut rng, 9.0) as f64)
            .filter(|&x| x >= 3.0)
            .collect();
        let fit = Poisson::mle(&data, 3.0).unwrap();
        assert!((fit.lambda - 9.0).abs() < 0.2, "lambda={}", fit.lambda);
    }

    #[test]
    fn sample_poisson_mean_matches() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 50_000;
        let m: f64 = (0..n).map(|_| sample_poisson(&mut rng, 4.2) as f64).sum::<f64>() / n as f64;
        assert!((m - 4.2).abs() < 0.05, "mean={m}");
        let m_big: f64 =
            (0..n).map(|_| sample_poisson(&mut rng, 120.0) as f64).sum::<f64>() / n as f64;
        assert!((m_big - 120.0).abs() < 0.5, "mean={m_big}");
    }
}
