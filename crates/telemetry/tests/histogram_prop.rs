//! Property suite for the power-of-two latency histogram: a snapshot
//! counts every recorded sample exactly once, and its cumulative counts
//! are monotone and end at that total — what a `METRICS` scrape's
//! `_bucket` lines rely on.

use hardbound_telemetry::{Histogram, HIST_BUCKETS};
use proptest::prelude::*;

fn sample() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        1u64..1024,
        // Exercise every bucket including the extremes.
        (0u32..64).prop_map(|s| 1u64 << s),
        (0u32..64).prop_map(|s| (1u64 << s).wrapping_sub(1)),
        any::<u64>(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn snapshot_counts_every_sample_and_cumulates_monotonically(
        samples in prop::collection::vec(sample(), 0..250),
    ) {
        let hist = Histogram::default();
        for &s in &samples {
            hist.record(s);
        }
        let snap = hist.snapshot();
        prop_assert_eq!(snap.count(), samples.len() as u64);

        // Cumulative counts are monotone non-decreasing and end at the
        // total observation count.
        let cum = snap.cumulative();
        for i in 1..HIST_BUCKETS {
            prop_assert!(cum[i] >= cum[i - 1], "bucket {} decreased", i);
        }
        prop_assert_eq!(cum[HIST_BUCKETS - 1], snap.count());
    }
}
