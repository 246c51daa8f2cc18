//! A warmed decision allocates only what it returns: the window encode its
//! `E_1` vector, the grid score its prediction table (data and shape),
//! whatever grid it scores.
//! This suite is its own binary because it installs a counting global
//! allocator; it counts only on the thread that armed it, so the test
//! harness's own threads cannot disturb the count.

use dbat_core::{Surrogate, SurrogateConfig};
use dbat_nn::Tensor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same layout, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same layout, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: same pointer, layout and size, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same pointer and layout, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// A `[c, 3]` (memory, batch, timeout) grid.
fn grid(c: usize, shift: f64) -> Tensor {
    let feats = (0..c)
        .flat_map(|i| {
            [
                128.0 * (1 + i % 24) as f64 + shift,
                (1 + i % 9) as f64,
                0.05 * (1 + i % 5) as f64,
            ]
        })
        .collect();
    Tensor::new(vec![c, 3], feats)
}

#[test]
fn warmed_encode_and_score_allocate_only_their_outputs() {
    let cfg = SurrogateConfig {
        seq_len: 128,
        ..SurrogateConfig::default()
    };
    let model = Surrogate::new(cfg, 7);
    let window: Vec<f64> = (0..cfg.seq_len)
        .map(|j| 0.01 + 0.003 * (j % 7) as f64)
        .collect();
    let (grid, other) = (
        model.preprocess_feats(&grid(216, 0.0)),
        model.preprocess_feats(&grid(216, 64.0)),
    );
    // Warm the plan and its arena.
    let e1 = model.encode_window_fast(&window);
    let table = model.predict_encoded_fast_pre(&e1, &grid);

    // The probe itself is armed: it must see an allocation.
    assert!(allocations_in(|| drop(black_box(vec![0u8; 8]))) > 0);

    for _ in 0..3 {
        let n = allocations_in(|| drop(black_box(model.encode_window_fast(&window))));
        assert_eq!(
            n, 1,
            "a warmed encode allocated {n} times, not just its E_1"
        );
        let n = allocations_in(|| drop(black_box(model.predict_encoded_fast_pre(&e1, &grid))));
        assert_eq!(
            n, 2,
            "a warmed score allocated {n} times, not just its table"
        );
    }
    // Another grid is scored in the same arena: still only the table.
    let n = allocations_in(|| drop(black_box(model.predict_encoded_fast_pre(&e1, &other))));
    assert_eq!(n, 2, "scoring a new grid allocated {n} times");
    // Back on the first grid, the table is the same bits as before.
    let again = model.predict_encoded_fast_pre(&e1, &grid);
    assert_eq!(again.data(), table.data());
}
