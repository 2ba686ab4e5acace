//! Property tests: micro-batched execution is equivalent to
//! one-at-a-time execution, and the parallel map preserves order.

use std::sync::Arc;

use afpr_runtime::{BatchConfig, Engine, MicroBatcher};
use proptest::prelude::*;

proptest! {
    /// Draining a batcher yields every item exactly once, in exact
    /// submission order, with no batch exceeding `batch_size`.
    fn batching_preserves_order_and_size(
        items in prop::collection::vec(0u32..1000, 0..80),
        batch_size in 1usize..9,
    ) {
        let b: MicroBatcher<u32> = MicroBatcher::new(BatchConfig {
            batch_size,
            capacity: 128,
        });
        for &item in &items {
            prop_assert!(b.try_submit(item).is_ok());
        }
        b.close();
        let mut drained = Vec::new();
        while let Some(batch) = b.next_batch() {
            prop_assert!(!batch.is_empty());
            prop_assert!(batch.len() <= batch_size);
            drained.extend(batch);
        }
        prop_assert_eq!(drained, items);
    }

    /// Processing micro-batches through a worker pool gives the same
    /// results as a plain sequential map: batching + parallelism are
    /// invisible to the computation.
    fn batched_parallel_map_equals_sequential_map(
        items in prop::collection::vec(-500i64..500, 0..60),
        batch_size in 1usize..7,
        threads in 1usize..4,
    ) {
        let golden: Vec<i64> = items.iter().map(|&v| v * v - 3 * v).collect();

        let engine = Engine::with_threads(threads);
        let b: MicroBatcher<i64> = MicroBatcher::new(BatchConfig {
            batch_size,
            capacity: 128,
        });
        for &item in &items {
            prop_assert!(b.try_submit(item).is_ok());
        }
        b.close();
        let mut got = Vec::new();
        while let Some(batch) = b.next_batch() {
            got.extend(engine.execute(batch, |v| v * v - 3 * v));
        }
        prop_assert_eq!(got, golden);
    }

    /// Order preservation holds under concurrent producers: each
    /// producer's items appear in its own submission order (global
    /// interleaving is arbitrary).
    fn per_producer_order_is_preserved(
        len_a in 0usize..30,
        len_b in 0usize..30,
    ) {
        let b: Arc<MicroBatcher<(u8, usize)>> = Arc::new(MicroBatcher::new(BatchConfig {
            batch_size: 4,
            capacity: 8,
        }));
        let producers: Vec<_> = [(0u8, len_a), (1u8, len_b)]
            .into_iter()
            .map(|(tag, len)| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for i in 0..len {
                        b.submit_blocking((tag, i));
                    }
                })
            })
            .collect();
        let mut seen: Vec<(u8, usize)> = Vec::new();
        while seen.len() < len_a + len_b {
            match b.next_batch() {
                Some(batch) => seen.extend(batch),
                None => break,
            }
        }
        for p in producers {
            p.join().expect("producer");
        }
        b.close();
        for tag in [0u8, 1] {
            let order: Vec<usize> =
                seen.iter().filter(|(t, _)| *t == tag).map(|(_, i)| *i).collect();
            let expect: Vec<usize> = (0..order.len()).collect();
            prop_assert_eq!(order, expect);
        }
        prop_assert_eq!(seen.len(), len_a + len_b);
    }
}
