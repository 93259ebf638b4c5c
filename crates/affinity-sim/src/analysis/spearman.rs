//! Spearman's rank correlation (the paper's Table 5).
//!
//! The paper validates its impact-indicator methodology by rank-
//! correlating per-bin *cycle* improvements with per-bin *LLC-miss* and
//! *machine-clear* improvements: values of 0.62–0.96, all above the
//! critical value, show that improvements in those two events predict
//! improvements in time.

/// The critical value quoted in the paper's Table 5 footnote
/// ("Critical value for p=0.05, degf=5, 1-tail is 0.377").
pub const PAPER_CRITICAL_VALUE: f64 = 0.377;

/// Assigns average ranks (1-based) with tie handling.
fn ranks(xs: &[f64]) -> Vec<f64> {
    let n = xs.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("no NaNs in rank data"));
    let mut out = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        // Average rank for the tie group [i, j].
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg;
        }
        i = j + 1;
    }
    out
}

/// Spearman's rank correlation coefficient of two equal-length samples,
/// with average-rank tie handling (Pearson correlation of the ranks).
///
/// Returns 0 for samples shorter than 2 or with zero rank variance.
///
/// # Panics
///
/// Panics if the slices differ in length or contain NaN.
#[must_use]
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "samples must be the same length");
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let rx = ranks(xs);
    let ry = ranks(ys);
    let mean = (n as f64 + 1.0) / 2.0;
    let mut num = 0.0;
    let mut dx = 0.0;
    let mut dy = 0.0;
    for i in 0..n {
        let a = rx[i] - mean;
        let b = ry[i] - mean;
        num += a * b;
        dx += a * a;
        dy += b * b;
    }
    if dx == 0.0 || dy == 0.0 {
        return 0.0;
    }
    num / (dx * dy).sqrt()
}

/// One-tailed p=0.05 critical values for Spearman's rho (standard
/// tables), for n = 4..=10 observations. Returns `None` outside the
/// table.
#[must_use]
pub fn spearman_critical_one_tail_p05(n: usize) -> Option<f64> {
    match n {
        4 => Some(1.000),
        5 => Some(0.900),
        6 => Some(0.829),
        7 => Some(0.714),
        8 => Some(0.643),
        9 => Some(0.600),
        10 => Some(0.564),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_positive_correlation() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert!((spearman(&xs, &ys) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_negative_correlation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [8.0, 6.0, 4.0, 2.0];
        assert!((spearman(&xs, &ys) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn monotone_nonlinear_is_still_one() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [1.0, 8.0, 27.0, 64.0, 125.0];
        assert!((spearman(&xs, &ys) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ties_use_average_ranks() {
        let xs = [1.0, 2.0, 2.0, 3.0];
        let ys = [1.0, 2.0, 3.0, 4.0];
        let rho = spearman(&xs, &ys);
        assert!(rho > 0.9 && rho < 1.0, "got {rho}");
    }

    #[test]
    fn uncorrelated_is_small() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let ys = [3.0, 8.0, 1.0, 6.0, 2.0, 7.0, 4.0, 5.0];
        assert!(spearman(&xs, &ys).abs() < 0.5);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(spearman(&[], &[]), 0.0);
        assert_eq!(spearman(&[1.0], &[2.0]), 0.0);
        assert_eq!(spearman(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn mismatched_lengths_panic() {
        let _ = spearman(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn critical_values_table() {
        assert_eq!(spearman_critical_one_tail_p05(7), Some(0.714));
        assert_eq!(spearman_critical_one_tail_p05(3), None);
        assert_eq!(spearman_critical_one_tail_p05(11), None);
        const { assert!(PAPER_CRITICAL_VALUE > 0.0) };
    }

    #[test]
    fn paper_range_values_pass_paper_critical() {
        // The paper's correlations (0.62..0.96) all exceed its quoted
        // critical value.
        for rho in [0.62, 0.80, 0.93, 0.96] {
            assert!(rho > PAPER_CRITICAL_VALUE);
        }
    }
}
