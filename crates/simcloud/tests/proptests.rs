//! Property-based tests for the simulated cloud substrate.

use caribou_model::rng::Pcg32;
use caribou_simcloud::clock::EventQueue;
use caribou_simcloud::cloud::SimCloud;
use proptest::prelude::*;

proptest! {
    /// The event queue pops in non-decreasing time order with FIFO ties,
    /// for arbitrary insertion orders.
    #[test]
    fn event_queue_total_order(times in proptest::collection::vec(0.0f64..1e6, 1..200)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.push(*t, i);
        }
        let mut popped = Vec::new();
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "ties must be FIFO");
            }
        }
    }

    /// Latency model: transfers are non-negative, monotone in payload
    /// size, and intra-region is never slower than inter-region for the
    /// same bytes.
    #[test]
    fn latency_monotonicity(bytes in 0.0f64..1e9, seed in any::<u64>()) {
        let SimCloud { regions: cat, latency: lm, .. } = SimCloud::aws(0);
        let a = cat.id_of("us-east-1").unwrap();
        let b = cat.id_of("us-west-2").unwrap();
        let small = lm.expected_transfer_seconds(a, b, bytes);
        let bigger = lm.expected_transfer_seconds(a, b, bytes + 1e6);
        prop_assert!(small >= 0.0);
        prop_assert!(bigger > small);
        let local = lm.expected_transfer_seconds(a, a, bytes);
        prop_assert!(local <= small);
        let _ = seed;
    }

    /// The KV store behaves as a map: last write wins, atomic updates
    /// observe the latest value, op counters never decrease.
    #[test]
    fn kv_map_semantics(ops in proptest::collection::vec((0u8..3, 0u8..8, 0u32..1000), 1..100)) {
        let SimCloud { regions: cat, latency: lm, mut kv, faults, .. } = SimCloud::aws(0);
        let region = cat.id_of("us-east-1").unwrap();
        let t = kv.create_table("t", region);
        let mut rng = Pcg32::seed(1);
        let mut shadow: std::collections::HashMap<String, Vec<u8>> = Default::default();
        let mut prev_ops = kv.total_ops();
        for (op, key, value) in ops {
            let key = format!("k{key}");
            let item = kv.named_item(t, &key);
            match op {
                0 => {
                    let v = value.to_le_bytes().to_vec();
                    kv.put_at(item, bytes::Bytes::from(v.clone()), region, &lm, &faults, 0.0, &mut rng);
                    shadow.insert(key, v);
                }
                1 => {
                    let got = kv.get_at(item, region, &lm, &faults, 0.0, &mut rng);
                    prop_assert_eq!(
                        got.value.as_ref().map(|b| b.to_vec()),
                        shadow.get(&key).cloned()
                    );
                }
                _ => {
                    kv.atomic_update("t", &key, region, &lm, &mut rng, |prev| {
                        let mut v = prev.map(|b| b.to_vec()).unwrap_or_default();
                        v.push(7);
                        bytes::Bytes::from(v)
                    });
                    shadow.entry(key).or_default().push(7);
                }
            }
            let now = kv.total_ops();
            prop_assert!(now.reads >= prev_ops.reads && now.writes >= prev_ops.writes);
            prev_ops = now;
        }
    }

    /// Pricing: lambda cost is monotone in duration and memory, and the
    /// billed value never undercuts the exact product.
    #[test]
    fn lambda_pricing_monotone(d in 0.001f64..900.0, mem in 128u32..10_000) {
        let SimCloud { regions: cat, pricing, .. } = SimCloud::aws(0);
        let r = cat.id_of("us-east-1").unwrap();
        let base = pricing.lambda_cost(r, d, mem);
        prop_assert!(pricing.lambda_cost(r, d * 2.0, mem) > base);
        prop_assert!(pricing.lambda_cost(r, d, mem * 2) > base);
        let exact = d * (mem as f64 / 1024.0) * pricing.region(r).lambda_gb_second
            + pricing.region(r).lambda_per_request;
        prop_assert!(base >= exact - 1e-15);
    }
}
