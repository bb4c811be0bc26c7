//! The benchmark's arithmetic: medians, quartiles, throughput, and the
//! reconciliation of layer rows against the end-to-end time.

/// Share of the end-to-end target the layer rows may leave unexplained
/// (either way) before the driver warns that they do not reconcile.
pub const RECONCILE_TOLERANCE: f64 = 0.15;

/// The median of `xs`: the middle value, or the mean of the middle two
/// for an even count. NaN when `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        d[n / 2]
    } else {
        (d[n / 2 - 1] + d[n / 2]) / 2.0
    }
}

/// The first and third quartiles of `xs` by the exclusive method, the
/// values Python's `statistics.quantiles(xs, n=4)` gives. `None` for
/// fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    let m = n as i64 + 1;
    let cut = |i: i64| {
        // Rescale quartile i to a 1-based rank and interpolate between
        // its neighbours, clamped to the data as Python clamps it.
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// FTP servers studied per wall second.
pub fn hosts_per_s(servers: usize, wall_s: f64) -> f64 {
    servers as f64 / wall_s
}

/// What the layer rows leave unexplained: the end-to-end target less
/// their sum. Negative when the traced calls took longer than the
/// untraced run.
pub fn unattributed_s(target_s: f64, layer_rows_s: &[f64]) -> f64 {
    target_s - layer_rows_s.iter().sum::<f64>()
}

/// True when the unexplained remainder is within `tolerance` of the
/// target, in either direction.
pub fn reconciles(target_s: f64, unattributed_s: f64, tolerance: f64) -> bool {
    unattributed_s.abs() <= tolerance * target_s
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert!(close(median(&[3.0, 1.0, 2.0]), 2.0));
        assert!(close(median(&[4.0, 1.0, 3.0, 2.0]), 2.5));
        assert!(close(median(&[7.5]), 7.5));
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) -> [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([5, 1, 3], n=4) -> [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some((1.0, 5.0)));
        // statistics.quantiles([1, 2], n=4) -> [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([2, 4, 4, 5, 7, 9, 10], n=4) -> [4.0, 5.0, 9.0]
        assert_eq!(
            quartiles(&[2.0, 4.0, 4.0, 5.0, 7.0, 9.0, 10.0]),
            Some((4.0, 9.0))
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn throughput_is_servers_over_wall_time() {
        assert!(close(hosts_per_s(3_367, 2.0), 1_683.5));
        assert!(close(hosts_per_s(12_000, 0.5), 24_000.0));
    }

    #[test]
    fn unattributed_time_reconciles_within_tolerance() {
        let rows = [0.5, 1.25, 0.2];
        assert!(close(unattributed_s(2.0, &rows), 0.05));
        assert!(reconciles(2.0, 0.05, RECONCILE_TOLERANCE));
        // Layer rows that overshoot leave a negative remainder.
        assert!(close(unattributed_s(1.5, &rows), -0.45));
        assert!(!reconciles(1.5, -0.45, RECONCILE_TOLERANCE));
        assert!(close(unattributed_s(3.0, &[]), 3.0));
    }

    #[test]
    fn ratio_guards_an_empty_denominator() {
        assert!(close(ratio(3.0, 4.0), 0.75));
        assert_eq!(ratio(3.0, 0.0), 0.0);
    }
}
