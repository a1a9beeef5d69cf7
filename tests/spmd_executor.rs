//! SPMD collectives and the vendored rayon's dispatches share one cache
//! of parked threads: back to back collectives, with rayon dispatches
//! between them, reuse the same p OS threads (the caller and p − 1
//! parked threads). A worker panic reaches the caller only after every
//! other worker has finished with the work items it borrowed, and a
//! rayon piece's panic reaches it with the piece's own payload; either
//! leaves the threads fit for the next collective. A dispatch nested in
//! a piece, and dispatches issued from every worker at once, finish.
//!
//! The thread cache is process-wide, so the cases run in sequence inside
//! one `#[test]`: no other test in this binary shares the cache.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;

use dpf::core::{run_workers, Checkpoint, LinkMeter, Router, Transport};
use rayon::prelude::*;

const P: usize = 8;

/// A work item that borrows one caller-owned cell.
struct Cell<'a>(&'a mut u64);

impl Checkpoint for Cell<'_> {
    fn capture(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0.to_le_bytes());
    }
    fn restore(&mut self, cursor: &mut &[u8]) {
        let (head, rest) = cursor.split_at(8);
        *self.0 = u64::from_le_bytes(head.try_into().expect("8-byte head"));
        *cursor = rest;
    }
}

/// One ring exchange at p = `P`, recording which OS thread ran each rank.
fn ring(meter: &LinkMeter, seen: &Mutex<HashSet<ThreadId>>) -> Vec<u64> {
    run_workers(
        P,
        Transport::clean(meter),
        vec![(); P],
        |rank, _, router: &mut Router<'_, u64>| {
            seen.lock()
                .expect("no worker panics while holding the thread set")
                .insert(std::thread::current().id());
            router.send((rank + 1) % P, 8, rank as u64);
            router.recv_from((rank + P - 1) % P)
        },
    )
}

fn threads(seen: &Mutex<HashSet<ThreadId>>) -> HashSet<ThreadId> {
    seen.lock().expect("collective finished").clone()
}

/// Record the calling OS thread in `seen`.
fn note(seen: &Mutex<HashSet<ThreadId>>) {
    seen.lock()
        .expect("no piece panics while holding the thread set")
        .insert(std::thread::current().id());
}

/// One rayon dispatch over `P` elements (so at most `P` pieces),
/// recording which OS threads ran its pieces.
fn dispatch(seen: &Mutex<HashSet<ThreadId>>) -> usize {
    (0..P)
        .into_par_iter()
        .map(|i| {
            note(seen);
            i
        })
        .sum()
}

#[test]
fn collectives_reuse_parked_threads() {
    let meter = LinkMeter::new();
    let expect: Vec<u64> = (0..P as u64)
        .map(|r| (r + P as u64 - 1) % P as u64)
        .collect();

    // (a) 100 back-to-back collectives, each followed by a rayon
    // dispatch, run on exactly P OS threads.
    let seen = Mutex::new(HashSet::new());
    for _ in 0..100 {
        assert_eq!(ring(&meter, &seen), expect);
        assert_eq!(dispatch(&seen), P * (P - 1) / 2);
    }
    let pool = threads(&seen);
    assert_eq!(
        pool.len(),
        P,
        "100 collectives and dispatches at p = {P} used {} threads",
        pool.len()
    );

    // (b) Rank 0 panics; the other ranks write through their borrowed
    // cells only after the panic has started. The caller must see the
    // panic only once every write is visible.
    let mut cells = [0u64; P];
    let panicking = AtomicBool::new(false);
    let seen = Mutex::new(HashSet::new());
    let work: Vec<Cell<'_>> = cells.iter_mut().map(Cell).collect();
    let res = catch_unwind(AssertUnwindSafe(|| {
        run_workers(
            P,
            Transport::clean(&meter),
            work,
            |rank, cell, _: &mut Router<'_, u64>| {
                seen.lock()
                    .expect("no worker panics while holding the thread set")
                    .insert(std::thread::current().id());
                if rank == 0 {
                    panicking.store(true, Ordering::Release);
                    panic!("rank 0 fails on purpose");
                }
                while !panicking.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                *cell.0 = 100 + rank as u64;
            },
        )
    }));
    let payload = res.expect_err("the rank-0 panic must reach the caller");
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"rank 0 fails on purpose"),
        "the root cause wins propagation"
    );
    let written: Vec<u64> = (1..P as u64).map(|r| 100 + r).collect();
    assert_eq!(cells[0], 0);
    assert_eq!(
        &cells[1..],
        &written[..],
        "the panic overtook a peer's write"
    );
    assert_eq!(threads(&seen), pool, "the failing collective ran elsewhere");

    // ...and the next collective succeeds on the same threads.
    let seen = Mutex::new(HashSet::new());
    assert_eq!(ring(&meter, &seen), expect);
    assert_eq!(
        threads(&seen),
        pool,
        "the threads did not survive the panic"
    );

    // (c) A rayon piece panics: the caller sees the first failing
    // piece's own payload, and the next collective runs on the same
    // threads.
    let seen = Mutex::new(HashSet::new());
    let res = catch_unwind(AssertUnwindSafe(|| {
        (0..P).into_par_iter().for_each(|i| {
            note(&seen);
            if i == 0 || i == P - 1 {
                panic!("element {i} fails on purpose");
            }
        })
    }));
    let payload = res.expect_err("the piece's panic must reach the caller");
    assert_eq!(
        payload.downcast_ref::<String>().map(String::as_str),
        Some("element 0 fails on purpose"),
        "the first piece's payload wins propagation"
    );
    assert_eq!(ring(&meter, &seen), expect);
    assert_eq!(
        threads(&seen),
        pool,
        "the threads did not survive the piece's panic"
    );

    // (d) A dispatch nested inside a piece finishes, and so do
    // dispatches issued from all P workers at once; the cache grows to
    // serve them.
    let nested: usize = (0..P)
        .into_par_iter()
        .map(|i| (0..P).into_par_iter().map(|j| i * P + j).sum::<usize>())
        .sum();
    assert_eq!(nested, (0..P * P).sum::<usize>());
    let sums = run_workers(
        P,
        Transport::clean(&meter),
        vec![(); P],
        |rank, _, router: &mut Router<'_, u64>| {
            let own: usize = (0..1000).into_par_iter().map(|k| k * rank).sum();
            let own = own as u64;
            router.send((rank + 1) % P, 8, own);
            router.recv_from((rank + P - 1) % P)
        },
    );
    let want: Vec<u64> = (0..P as u64)
        .map(|r| (r + P as u64 - 1) % P as u64 * 499_500)
        .collect();
    assert_eq!(sums, want);
    assert_eq!(ring(&meter, &Mutex::new(HashSet::new())), expect);
}
