//! The benchmark's own arithmetic: noise-robust estimators, percentiles,
//! the seeded arrival schedule and the one-worker queue replay.

use menda_sparse::rng::StdRng;

/// Host time of one pass over a job list: the sum over jobs of each job's
/// minimum time across passes, skipping pass 0 (warm-up).
///
/// Shared-cache contention from other tenants only ever slows a job, so a
/// job's fastest pass is its least-disturbed one; summing per-job minimums
/// needs each job to meet one quiet moment, not the whole pass.
///
/// `samples[j]` holds job `j`'s host seconds in pass order.
///
/// # Panics
///
/// Panics if a job has no sample after the warm-up pass.
pub fn sum_of_job_minimums(samples: &[Vec<f64>]) -> f64 {
    samples
        .iter()
        .map(|s| {
            s.iter()
                .skip(1)
                .copied()
                .reduce(f64::min)
                .expect("every job needs a timed pass after warm-up")
        })
        .sum()
}

/// Plain median (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn middle(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0
}

/// Host time of one pass over a job list from reference-normalized
/// samples: the sum over jobs of each job's median across passes,
/// skipping pass 0. Normalization already removes most of the host's
/// phases, so the median, which ignores the remaining outliers on both
/// sides, beats the minimum, which would pick them.
pub fn sum_of_job_medians(samples: &[Vec<f64>]) -> f64 {
    samples.iter().map(|s| middle(&s[1..])).sum()
}

/// Samples needed before a percentile is reported: at least ten samples
/// must lie beyond it.
pub fn samples_needed(pct: f64) -> usize {
    // The epsilon keeps 10 / 0.1 from rounding up past 100.
    (10.0 * 100.0 / (100.0 - pct) - 1e-9).ceil() as usize
}

/// Harrell–Davis estimate of the `pct` percentile of `values`, or `None`
/// when fewer than [`samples_needed`] values back it.
///
/// The estimate is a Beta-weighted mean of all order statistics
/// concentrated around rank `pct/100 · n`. For the few hundred latencies a
/// run collects it varies markedly less from run to run than any single
/// order statistic, which a tail percentile would otherwise be.
pub fn percentile(values: &[f64], pct: f64) -> Option<f64> {
    let n = values.len();
    if n < samples_needed(pct) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p = pct / 100.0;
    let (a, b) = (p * (n as f64 + 1.0), (1.0 - p) * (n as f64 + 1.0));
    let mut below = 0.0;
    let mut estimate = 0.0;
    for (i, v) in sorted.iter().enumerate() {
        let upto = beta_cdf((i + 1) as f64 / n as f64, a, b);
        estimate += (upto - below) * v;
        below = upto;
    }
    Some(estimate)
}

/// Regularized incomplete beta function `I_x(a, b)`.
fn beta_cdf(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(x, a, b) / a
    } else {
        1.0 - front * beta_fraction(1.0 - x, b, a) / b
    }
}

/// Continued fraction of the incomplete beta function (modified Lentz).
fn beta_fraction(x: f64, a: f64, b: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let guard = |v: f64| if v.abs() < TINY { TINY } else { v };
    let mut c = 1.0;
    let mut d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..=1000 {
        let m = f64::from(m);
        let even = m * (b - m) * x / ((a - 1.0 + 2.0 * m) * (a + 2.0 * m));
        d = 1.0 / guard(1.0 + even * d);
        c = guard(1.0 + even / c);
        h *= d * c;
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 1.0 + 2.0 * m));
        d = 1.0 / guard(1.0 + odd * d);
        c = guard(1.0 + odd / c);
        h *= d * c;
        if (d * c - 1.0).abs() < 1e-14 {
            break;
        }
    }
    h
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let series = G[1..]
        .iter()
        .enumerate()
        .fold(G[0], |acc, (i, g)| acc + g / (x + i as f64 + 1.0));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// Median (p50) under the same sample rule.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// Seeded Poisson arrivals: `n` due times in seconds from the start of a
/// window at `rate` arrivals per second.
pub fn poisson_arrivals(rng: &mut StdRng, rate: f64, n: usize) -> Vec<f64> {
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            let u: f64 = rng.random();
            t += -(1.0 - u).ln() / rate;
            t
        })
        .collect()
}

/// Client-observed latency of an open-loop request: from the moment it was
/// due to be sent, not the moment it was sent, so a stall anywhere (in the
/// sender or the server) is charged to every request it delays.
pub fn open_loop_latency(due: f64, done: f64) -> f64 {
    done - due
}

/// Replays due times through one FIFO worker with the given service
/// times, returning each request's open-loop latency (completion minus
/// due time). A long job delays every job queued behind it.
pub fn fifo_replay(due: &[f64], service: &[f64]) -> Vec<f64> {
    let mut free_at = f64::NEG_INFINITY;
    due.iter()
        .zip(service)
        .map(|(&d, &s)| {
            free_at = free_at.max(d) + s;
            open_loop_latency(d, free_at)
        })
        .collect()
}

/// Whether a queue was still growing: requests in the later half of the
/// windows waited more than twice as long as those in the earlier half.
pub fn backlog_grows(early: &[f64], late: &[f64]) -> bool {
    match (median(early), median(late)) {
        (Some(early), Some(late)) => late > 2.0 * early,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_minimums_skip_warm_up_and_sum_per_job() {
        let samples = vec![vec![0.1, 5.0, 3.0, 4.0], vec![0.2, 1.0, 2.0, 0.5]];
        assert_eq!(sum_of_job_minimums(&samples), 3.5);
    }

    #[test]
    fn job_minimums_ignore_slow_passes() {
        // A slow phase that hits different jobs in different passes does
        // not move the estimate.
        let quiet = [1.0, 2.0, 3.0];
        let samples: Vec<Vec<f64>> = (0..3)
            .map(|j| {
                (0..6)
                    .map(|p| if p % 3 == j { quiet[j] * 1.8 } else { quiet[j] })
                    .collect()
            })
            .collect();
        assert_eq!(sum_of_job_minimums(&samples), 6.0);
    }

    #[test]
    #[should_panic(expected = "timed pass after warm-up")]
    fn job_minimums_need_a_timed_pass() {
        sum_of_job_minimums(&[vec![1.0]]);
    }

    #[test]
    fn job_medians_skip_warm_up_and_sum_per_job() {
        let samples = vec![vec![9.0, 1.0, 3.0, 2.0], vec![9.0, 4.0, 5.0]];
        assert_eq!(sum_of_job_medians(&samples), 2.0 + 4.5);
        assert_eq!(middle(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(samples_needed(90.0), 100);
        assert_eq!(samples_needed(50.0), 20);
        let values: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&values, 90.0), None);
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&values, 90.0).expect("100 samples back a p90");
        // Ten values lie beyond the reported p90.
        assert_eq!(values.iter().filter(|&&v| v > p90).count(), 10);
        assert!((p90 - 90.5).abs() < 1e-6, "{p90}");
        let p50 = median(&values).expect("p50");
        assert!((p50 - 50.5).abs() < 1e-6, "{p50}");
        assert_eq!(median(&values[..19]), None);
    }

    #[test]
    fn harrell_davis_weights_sum_to_one() {
        let flat = percentile(&[7.0; 300], 90.0).expect("p90");
        assert!((flat - 7.0).abs() < 1e-9, "{flat}");
        assert!((beta_cdf(0.3, 2.0, 2.0) - 0.216).abs() < 1e-12);
        assert!((ln_gamma(10.0) - 362_880f64.ln()).abs() < 1e-10);
        // Heavy-tailed data: the estimate stays between the order
        // statistics around the rank.
        let values: Vec<f64> = (1..=400).map(|i| f64::from(i).powi(3)).collect();
        let p90 = percentile(&values, 90.0).expect("p90");
        assert!(p90 > 350f64.powi(3) && p90 < 370f64.powi(3), "{p90}");
    }

    #[test]
    fn open_loop_latency_counts_from_due_time() {
        // Due at 0, 10 and 20 ms; the server stalls until 100 ms, and the
        // client only managed to send them late. Latency runs from the
        // due time, so the stall is charged in full to each request.
        let due = [0.000, 0.010, 0.020];
        let done = [0.100, 0.101, 0.102];
        let lat: Vec<f64> = due
            .iter()
            .zip(&done)
            .map(|(&d, &t)| open_loop_latency(d, t))
            .collect();
        assert!((lat[0] - 0.100).abs() < 1e-12);
        assert!((lat[1] - 0.091).abs() < 1e-12);
        assert!((lat[2] - 0.082).abs() < 1e-12);
    }

    #[test]
    fn stalled_worker_delays_later_jobs() {
        // Job 0 stalls the worker for 1 s; jobs due during the stall wait
        // for it, and the wait drains once arrivals space out again.
        let due = [0.0, 0.1, 0.2, 5.0];
        let service = [1.0, 0.01, 0.01, 0.01];
        let lat = fifo_replay(&due, &service);
        assert!((lat[0] - 1.0).abs() < 1e-12);
        assert!((lat[1] - 0.91).abs() < 1e-12);
        assert!((lat[2] - 0.82).abs() < 1e-12);
        assert!((lat[3] - 0.01).abs() < 1e-12);
    }

    #[test]
    fn backlog_detection() {
        let steady: Vec<f64> = (0..200).map(|i| 1.0 + (i % 7) as f64 * 0.1).collect();
        let (early, late) = steady.split_at(100);
        assert!(!backlog_grows(early, late));
        let growing: Vec<f64> = (0..200).map(|i| 1.0 + i as f64 * 0.1).collect();
        let (early, late) = growing.split_at(100);
        assert!(backlog_grows(early, late));
    }

    #[test]
    fn arrivals_follow_the_seed_and_the_rate() {
        let a = poisson_arrivals(&mut StdRng::seed_from_u64(3), 50.0, 2000);
        let b = poisson_arrivals(&mut StdRng::seed_from_u64(3), 50.0, 2000);
        let c = poisson_arrivals(&mut StdRng::seed_from_u64(4), 50.0, 2000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), c.len());
        assert!(a.windows(2).all(|w| w[1] > w[0]));
        let rate = a.len() as f64 / a[a.len() - 1];
        assert!((rate - 50.0).abs() < 5.0, "rate {rate}");
    }
}
