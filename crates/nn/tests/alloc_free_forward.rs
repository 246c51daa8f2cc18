//! A warmed inference forward allocates nothing: the arena's backing block
//! is sized by the first call, and every later call only carves it. This
//! suite is its own binary because it installs a counting global
//! allocator; it counts only on the thread that armed it, so the test
//! harness's own threads cannot disturb the count.

use dbat_nn::{Arena, InferencePlan, InitRng, TransformerEncoder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
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
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
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

#[test]
fn warmed_inference_forward_allocates_nothing() {
    let (seq, dim, heads, ff, layers) = (128, 16, 4, 32, 2);
    let enc = TransformerEncoder::new(layers, dim, heads, ff, &mut InitRng::new(7));
    let plan = InferencePlan::compile(&enc);
    let input: Vec<f64> = (0..seq * dim)
        .map(|i| (i % 13) as f64 * 0.1 - 0.6)
        .collect();
    let mut x = input.clone();
    let mut arena = Arena::new();
    plan.forward(1, seq, &mut x, &mut arena);
    let first = x.clone();

    // The probe itself is armed: it must see an allocation.
    assert!(allocations_in(|| drop(std::hint::black_box(vec![0u8; 8]))) > 0);

    for _ in 0..3 {
        x.copy_from_slice(&input);
        let n = allocations_in(|| plan.forward(1, seq, &mut x, &mut arena));
        assert_eq!(n, 0, "a warmed forward allocated {n} times");
        assert_eq!(
            x, first,
            "the forward must not depend on the arena's history"
        );
    }
}
