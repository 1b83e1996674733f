//! Regression test: once `scope` has returned, no task of that scope
//! may touch the caller's stack frame again.
//!
//! The last task to finish signals the waiting scope owner. If that
//! signal (a mutex lock and a condvar notify) lives in the owner's
//! frame, the owner can observe the task count reach zero, return, and
//! reuse the frame while the task is still signalling — a late write
//! into whatever local now occupies that memory. This test provokes
//! exactly that reuse: right after each scope, on the same worker, an
//! `#[inline(never)]` probe fills the freed stack region with a known
//! pattern, yields so straggling tasks can run, and re-checks it. Any
//! changed word (or a wrong task result) counts as one corrupted
//! iteration; the test requires zero.
//!
//! The probe catches the defect in release builds only (debug builds
//! lay the frames out differently), so run it with
//! `cargo test --release -p fmm-runtime --test scope_reuse`.

use fmm_runtime::{scope, ThreadPoolBuilder};
use std::sync::atomic::{AtomicU64, Ordering};

const CLIENTS: usize = 2;
const ITERATIONS: usize = 5000;
const SPAWNS: u64 = 7;
const PROBE_WORDS: usize = 256;

fn pattern(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA5A5_A5A5_A5A5_A5A5
}

/// Fill `PROBE_WORDS` words of fresh stack with a pattern, yield, and
/// report whether every word survived.
#[inline(never)]
fn stack_probe(seed: u64) -> bool {
    let mut words = [0u64; PROBE_WORDS];
    for (i, w) in words.iter_mut().enumerate() {
        *w = pattern(seed, i);
    }
    std::hint::black_box(&mut words);
    std::thread::yield_now();
    std::hint::black_box(&words)
        .iter()
        .enumerate()
        .all(|(i, &w)| w == pattern(seed, i))
}

/// One scope of `SPAWNS` tasks followed by the probe, both on a pool
/// worker. Returns true when the tasks' sum and the probe are intact.
fn scope_then_probe(seed: u64) -> bool {
    let sum = AtomicU64::new(0);
    scope(|s| {
        for t in 1..=SPAWNS {
            let sum = &sum;
            s.spawn(move |_| {
                sum.fetch_add(t, Ordering::Relaxed);
            });
        }
    });
    let tasks_ok = sum.load(Ordering::Relaxed) == SPAWNS * (SPAWNS + 1) / 2;
    let probe_ok = stack_probe(seed);
    tasks_ok && probe_ok
}

#[test]
fn scope_frame_is_not_touched_after_scope_returns() {
    let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
    let corrupted = AtomicU64::new(0);
    std::thread::scope(|clients| {
        for client in 0..CLIENTS {
            let (pool, corrupted) = (&pool, &corrupted);
            clients.spawn(move || {
                for i in 0..ITERATIONS {
                    let seed =
                        ((client * ITERATIONS + i) as u64).wrapping_mul(0x2545_F491_4F6C_DD1D);
                    if !pool.install(|| scope_then_probe(seed)) {
                        corrupted.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let corrupted = corrupted.load(Ordering::Relaxed);
    assert_eq!(
        corrupted,
        0,
        "{corrupted} of {} scope iterations saw a task write into a returned scope's frame",
        CLIENTS * ITERATIONS
    );
}
