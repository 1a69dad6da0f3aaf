//! Heap-allocation budget of the PPO minibatch loop.
//!
//! `PpoTrainer::update` owns long-lived workspaces (sample orders, one
//! observation gather, network workspace and gradient buffer per head, the
//! Gaussian head's exponentials), so after a warm-up call the whole
//! minibatch-SGD phase must run in O(1) heap allocations — independent of
//! batch size, epoch count and minibatch count, with or without the value
//! head's thread. A counting global allocator makes that a hard invariant instead
//! of a code-review hope.
//!
//! This file deliberately contains a single test: the counter is global,
//! and a sibling test running concurrently would pollute the count.

use mflb_rl::{Env, PpoConfig, PpoTrainer, ToyControlEnv};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Counts allocations (and reallocations) while `COUNTING` is on.
struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn update_performs_o1_allocations_after_warmup() {
    let env = ToyControlEnv::new(16);
    // One thread runs both heads inline; two run the value head on a
    // scoped thread, whose spawn counts against the same budget.
    for threads in [1, 2] {
        let cfg = PpoConfig {
            train_batch_size: 512,
            // 512 / 96 leaves a short final minibatch, so the workspaces
            // must absorb the batch-size alternation without reallocating.
            minibatch_size: 96,
            num_epochs: 3,
            hidden: vec![32, 32],
            rollout_threads: threads,
            ..PpoConfig::paper()
        };
        let mut trainer = PpoTrainer::new(&env as &dyn Env, cfg, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let (buffer, _) = trainer.collect_batch();

        // Warm-up: the first update may allocate freely (workspace growth).
        trainer.update(&buffer, &mut rng);

        ALLOCATIONS.store(0, Ordering::SeqCst);
        COUNTING.store(true, Ordering::SeqCst);
        trainer.update(&buffer, &mut rng);
        COUNTING.store(false, Ordering::SeqCst);
        let allocs = ALLOCATIONS.load(Ordering::SeqCst);

        // 3 epochs × 6 minibatches over 512 samples: the historical
        // implementation allocated hundreds of buffers per minibatch. O(1)
        // here means "a small constant for the whole call"; 16 leaves head
        // room for incidental one-offs without letting per-minibatch (≥ 18)
        // or per-sample allocation patterns back in.
        assert!(
            allocs <= 16,
            "update() at {threads} thread(s) allocated {allocs} times after warm-up \
             (want O(1) ≤ 16)"
        );
    }
}
