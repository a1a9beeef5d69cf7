//! The SPMD executor: one process-wide cache of parked worker threads.
//!
//! Every SPMD collective needs p threads for the duration of one call.
//! Spawning and joining p threads per collective used to cost a third of
//! an orchestration-bound sweep, so the threads live for the process
//! instead: a collective checks out p − 1 parked threads (spawning any
//! shortfall before it hands out its first job), gives each one job that
//! borrows the collective's stack, runs the last job on the calling
//! thread, waits on a latch until every handed-out job has finished, and
//! parks the threads again for the next collective.
//!
//! The caller runs a job itself, as the vendored rayon runs its last
//! piece inline, rather than idling on the latch: that saves one handoff
//! per collective, one parked thread, and one thread spawn in a process's
//! first collective. The spawn matters because parked threads keep their
//! stacks and malloc arenas, so the threads a later rayon dispatch
//! starts cannot reuse them the way they reuse those of exited threads.
//!
//! The cache grows to the largest concurrent demand (concurrent campaign
//! tenants each check out their own p − 1) and never shrinks. It is
//! process-wide rather than per [`Ctx`](crate::Ctx) so that every caller
//! of [`run_workers`](crate::run_workers) — with or without a context —
//! shares the same threads.
//!
//! # Soundness of the borrowed jobs
//!
//! A job borrows data that lives on the caller's stack for `'a`, but a
//! parked thread outlives any `'a`, so [`run`] erases the job's lifetime
//! to hand it over. That is sound because `run` does not return — nor
//! unwind past its frame — before every handed-out job has been called
//! and dropped: each hand-out increments the crew's latch first, a parked
//! thread counts it down only after the job (and everything it captured)
//! is gone, panicking or not, and the crew's `Drop` waits for the latch to
//! reach zero, so the wait also runs when the caller unwinds.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// One worker's share of a collective, borrowing the caller's stack.
pub(crate) type Job<'a> = Box<dyn FnOnce() + Send + 'a>;

/// Parked threads not checked out by any collective.
static IDLE: Mutex<Vec<Arc<Seat>>> = Mutex::new(Vec::new());

/// Lock `m`, ignoring poison: every critical section in this module is a
/// single push, pop or counter update, so the data stays valid even if a
/// panic ever struck while the lock was held.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Counts the jobs of one collective that are handed out and not yet
/// finished.
#[derive(Default)]
struct Latch {
    running: Mutex<usize>,
    idle: Condvar,
}

impl Latch {
    fn add(&self) {
        *lock(&self.running) += 1;
    }

    fn count_down(&self) {
        let mut running = lock(&self.running);
        *running -= 1;
        if *running == 0 {
            self.idle.notify_all();
        }
    }

    fn wait(&self) {
        let mut running = lock(&self.running);
        while *running > 0 {
            running = self
                .idle
                .wait(running)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A parked thread's mailbox: at most one job at a time, plus the latch
/// of the collective it belongs to.
#[derive(Default)]
struct Seat {
    job: Mutex<Option<(Job<'static>, Arc<Latch>)>>,
    ready: Condvar,
}

impl Seat {
    /// Spawn a thread that parks on a fresh seat. The thread runs for the
    /// rest of the process, so its handle is not kept: [`park`] catches
    /// every job's panic, and nothing else in its loop can panic.
    fn spawn() -> Arc<Seat> {
        let seat = Arc::new(Seat::default());
        let parked = Arc::clone(&seat);
        std::thread::Builder::new()
            .name("dpf-spmd-worker".into())
            .spawn(move || park(&parked))
            .expect("spawning an SPMD worker thread");
        seat
    }

    fn hand(&self, job: Job<'static>, latch: Arc<Latch>) {
        *lock(&self.job) = Some((job, latch));
        self.ready.notify_one();
    }
}

/// A parked thread's loop: wait for a job, run it, count it down.
fn park(seat: &Seat) {
    loop {
        let (job, latch) = {
            let mut slot = lock(&seat.job);
            loop {
                if let Some(next) = slot.take() {
                    break next;
                }
                slot = seat
                    .ready
                    .wait(slot)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // A job reports its own failures; a panic that escapes it must not
        // take the thread (or the latch count) down with it.
        let _ = catch_unwind(AssertUnwindSafe(job));
        latch.count_down();
    }
}

/// The threads one collective checked out. Dropping the crew waits for
/// every handed-out job and then parks its threads again.
struct Crew {
    seats: Vec<Arc<Seat>>,
    latch: Arc<Latch>,
}

impl Crew {
    fn check_out(n: usize) -> Crew {
        let seats = {
            let mut idle = lock(&IDLE);
            let keep = idle.len().saturating_sub(n);
            idle.split_off(keep)
        };
        let mut crew = Crew {
            seats,
            latch: Arc::default(),
        };
        while crew.seats.len() < n {
            crew.seats.push(Seat::spawn());
        }
        crew
    }
}

impl Drop for Crew {
    fn drop(&mut self) {
        self.latch.wait();
        lock(&IDLE).append(&mut self.seats);
    }
}

/// Run the last job on the calling thread and every other job on its own
/// parked thread, and return once all of them have finished. A job that
/// panics is caught on its thread, the caller's included; jobs are
/// expected to report their own failures (see the module docs for why
/// the jobs may borrow the caller's stack).
pub(crate) fn run(mut jobs: Vec<Job<'_>>) {
    let Some(own) = jobs.pop() else { return };
    let crew = Crew::check_out(jobs.len());
    for (seat, job) in crew.seats.iter().zip(jobs) {
        crew.latch.add();
        // SAFETY: `crew` is dropped before `run` returns or unwinds, and its
        // Drop waits until this job has run and been dropped (module docs).
        // dpf-lint: allow(unsafe-forbid, reason = "lifetime erasure of a job the crew's latch outlives; see the executor module docs")
        let job = unsafe { std::mem::transmute::<Job<'_>, Job<'static>>(job) };
        seat.hand(job, Arc::clone(&crew.latch));
    }
    let _ = catch_unwind(AssertUnwindSafe(own));
}
