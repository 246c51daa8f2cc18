//! No train / eval / predict call ever asks the allocator for a buffer as
//! large as one `[B·H, S, S]` attention tensor: the fused attention op
//! keeps scores in `O(S)` scratch, forward and backward. Buffers reach the
//! tapes' pools only through the allocator, so a process-wide high-water
//! mark on single allocations covers cold and warm calls alike. This file
//! holds one test so nothing else allocates while it measures.

use dbat_core::{Surrogate, SurrogateConfig};
use dbat_nn::{Adam, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct HighWater;

// SAFETY: defers every call to `System` unchanged; the only addition is a
// relaxed atomic max on the requested size, which publishes no other data.
unsafe impl GlobalAlloc for HighWater {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: same layout, forwarded.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: same layout, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: same pointer, layout and size, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same pointer and layout, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: HighWater = HighWater;

#[test]
fn train_eval_and_predict_never_allocate_a_seq_by_seq_buffer() {
    let cfg = SurrogateConfig {
        seq_len: 128,
        ..SurrogateConfig::default()
    };
    let (batch, shards) = (8usize, 4usize);
    let l = cfg.seq_len;
    let window = |i: usize| (0..l).map(move |j| 0.01 + 0.002 * ((i + j) % 5) as f64);
    let seq_raw = Tensor::new(vec![batch, l], (0..batch).flat_map(window).collect());
    let feats_raw = Tensor::new(
        vec![batch, 3],
        (0..batch)
            .flat_map(|i| {
                [
                    512.0 + 256.0 * i as f64,
                    (i % 4 + 1) as f64,
                    0.02 * i as f64,
                ]
            })
            .collect(),
    );
    let targets = Tensor::full(vec![batch, 5], 0.2);
    let weights = Tensor::full(vec![batch, 5], 1.0);
    let mut model = Surrogate::new(cfg, 11);
    let mut adam = Adam::new(1e-3);

    // One shard's attention weights, the smallest S×S tensor any of the
    // calls below used to build, in bytes.
    let limit = (batch / shards) * cfg.heads * l * l * std::mem::size_of::<f64>();
    LARGEST.store(0, Ordering::Relaxed);
    for _ in 0..2 {
        let (seq, feats) = (
            model.preprocess_seq(&seq_raw),
            model.preprocess_feats(&feats_raw),
        );
        let loss = model.train_step_sharded(
            seq.clone(),
            feats.clone(),
            &targets,
            &weights,
            0.05,
            1.0,
            &mut adam,
            shards,
            true,
        );
        assert!(loss.is_finite());
        assert!(model
            .eval_loss(seq, feats, &targets, &weights, 0.05, 1.0)
            .is_finite());
        assert_eq!(model.predict(&seq_raw, &feats_raw).shape(), &[batch, 5]);
    }
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest < limit,
        "largest single allocation {largest} B >= one shard's [B·H, S, S] = {limit} B"
    );
    // The measure is live: the largest legitimate tensor, the batch's
    // feed-forward hidden activations, did go through it.
    assert!(largest >= batch * l * cfg.ff_hidden * std::mem::size_of::<f64>());
}
