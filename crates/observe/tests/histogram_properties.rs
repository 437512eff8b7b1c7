//! Property-based tests for the log-linear latency histogram.
//!
//! The quantile queries feed `orpheus-cli profile`, the `serve.*` metrics and
//! the OpenMetrics export, so the edge cases matter: an empty histogram must
//! answer harmlessly, a single sample must be reported exactly, and merging
//! partial histograms (the load generator's per-client tallies) must be
//! order-independent — the aggregate may not depend on which shard merged
//! first.

use orpheus_observe::Histogram;
use proptest::prelude::*;

const QS: [f64; 3] = [0.50, 0.90, 0.99];

fn filled(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

#[test]
fn empty_histogram_answers_zero_for_every_quantile() {
    let h = Histogram::new();
    for q in QS {
        assert_eq!(h.percentile(q), 0);
    }
    assert_eq!(h.count(), 0);
    assert_eq!(h.min(), 0);
    assert_eq!(h.max(), 0);
    assert_eq!(h.mean(), 0.0);
}

#[test]
fn merging_an_empty_histogram_is_identity() {
    let mut h = filled(&[5, 500, 50_000]);
    let before: Vec<u64> = QS.iter().map(|&q| h.percentile(q)).collect();
    h.merge(&Histogram::new());
    let after: Vec<u64> = QS.iter().map(|&q| h.percentile(q)).collect();
    assert_eq!(before, after);
    assert_eq!(h.count(), 3);
    assert_eq!(h.min(), 5);
    assert_eq!(h.max(), 50_000);

    // And the other direction: empty absorbing a populated histogram.
    let mut e = Histogram::new();
    e.merge(&filled(&[5, 500, 50_000]));
    assert_eq!(e.count(), 3);
    assert_eq!(e.min(), 5);
    assert_eq!(e.max(), 50_000);
}

proptest! {
    /// A single sample is every quantile, exactly (clamping to [min, max]
    /// collapses the bucket back to the value).
    #[test]
    fn single_sample_is_every_quantile(v in any::<u64>()) {
        let h = filled(&[v]);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(h.percentile(q), v);
        }
        prop_assert_eq!(h.min(), v);
        prop_assert_eq!(h.max(), v);
        prop_assert_eq!(h.count(), 1);
    }

    /// Quantiles always land inside the observed [min, max] range and are
    /// monotone in q.
    #[test]
    fn quantiles_bounded_and_monotone(values in prop::collection::vec(0u64..1_000_000_000, 1..200)) {
        let h = filled(&values);
        let lo = *values.iter().min().unwrap();
        let hi = *values.iter().max().unwrap();
        let mut prev = 0u64;
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let p = h.percentile(q);
            prop_assert!(p >= lo && p <= hi, "p{q} = {p} outside [{lo}, {hi}]");
            prop_assert!(p >= prev, "quantiles regressed at q={q}");
            prev = p;
        }
    }

    /// merge() is order-independent: a⊕b and b⊕a agree on every statistic,
    /// and both equal recording all samples into one histogram.
    #[test]
    fn merge_is_order_independent(
        a in prop::collection::vec(0u64..10_000_000, 0..100),
        b in prop::collection::vec(0u64..10_000_000, 0..100),
    ) {
        let mut ab = filled(&a);
        ab.merge(&filled(&b));
        let mut ba = filled(&b);
        ba.merge(&filled(&a));
        let mut all: Vec<u64> = a.iter().chain(&b).copied().collect();
        all.sort_unstable();
        let one = filled(&all);

        prop_assert_eq!(ab.count(), ba.count());
        prop_assert_eq!(ab.min(), ba.min());
        prop_assert_eq!(ab.max(), ba.max());
        prop_assert_eq!(ab.mean(), ba.mean());
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(ab.percentile(q), ba.percentile(q));
            prop_assert_eq!(ab.percentile(q), one.percentile(q));
        }
    }

    /// Merging three shards is associative regardless of grouping.
    #[test]
    fn merge_is_associative(
        a in prop::collection::vec(0u64..10_000_000, 0..50),
        b in prop::collection::vec(0u64..10_000_000, 0..50),
        c in prop::collection::vec(0u64..10_000_000, 0..50),
    ) {
        // (a ⊕ b) ⊕ c
        let mut left = filled(&a);
        left.merge(&filled(&b));
        left.merge(&filled(&c));
        // a ⊕ (b ⊕ c)
        let mut bc = filled(&b);
        bc.merge(&filled(&c));
        let mut right = filled(&a);
        right.merge(&bc);

        prop_assert_eq!(left.count(), right.count());
        prop_assert_eq!(left.min(), right.min());
        prop_assert_eq!(left.max(), right.max());
        for q in QS {
            prop_assert_eq!(left.percentile(q), right.percentile(q));
        }
    }
}
