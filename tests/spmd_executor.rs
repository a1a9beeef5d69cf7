//! The SPMD executor parks its worker threads between collectives: back
//! to back collectives reuse the same p OS threads (the caller and p − 1
//! parked threads), and a worker panic
//! reaches the caller only after every other worker has finished with
//! the work items it borrowed, leaving the threads fit for the next
//! collective.
//!
//! The thread cache is process-wide, so both cases run in sequence inside
//! one `#[test]`: no other test in this binary shares the cache.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;

use dpf::core::{run_workers, Checkpoint, LinkMeter, Router, Transport};

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

#[test]
fn collectives_reuse_parked_threads() {
    let meter = LinkMeter::new();
    let expect: Vec<u64> = (0..P as u64)
        .map(|r| (r + P as u64 - 1) % P as u64)
        .collect();

    // (a) 100 back-to-back collectives run on exactly P OS threads.
    let seen = Mutex::new(HashSet::new());
    for _ in 0..100 {
        assert_eq!(ring(&meter, &seen), expect);
    }
    let pool = threads(&seen);
    assert_eq!(
        pool.len(),
        P,
        "100 collectives at p = {P} used {} threads",
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
}
