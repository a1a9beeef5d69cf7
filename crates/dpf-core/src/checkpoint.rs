//! Checkpoint/restart: one snapshot trait for both rollback layers.
//!
//! Iterative benchmarks (conjugate gradient, Jacobi eigensolver, the
//! diffusion/wave applications, molecular dynamics) advance a small state
//! through many identical steps. Under fault injection a step may panic
//! (forced abort), corrupt the state (NaN poison / bit flip), or both.
//! [`drive`] runs such a loop with snapshot-every-K semantics: state is
//! captured at checkpoint boundaries, validated via
//! [`Checkpoint::healthy`], and rolled back + recomputed when a step
//! panics or leaves the state unsound. The final `Verify` of a recovered
//! run must still pass — that is the point. Each kernel has one loop:
//! with K = 0 (`--checkpoint-every` unset) [`drive`] runs it bare.
//!
//! The same byte form serves the SPMD backend's in-run healing
//! (`--recover in-run`): `run_workers` captures every work item before
//! a collective starts, and a heal restores each one from those bytes
//! before running the collective again (see `spmd.rs`).

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::dtype::Elem;
use crate::fault::DpfError;

/// Restore budget of a checkpoint-aware kernel (per run, not per window).
pub const MAX_RESTORES: usize = 32;

/// A value's bytes and health: the unit of rollback, both for an
/// iterative kernel's state under [`drive`] and for an SPMD worker's
/// shard under in-run healing.
///
/// [`Checkpoint::capture`] appends to `out`; [`Checkpoint::restore`]
/// reads the same prefix back in place and advances the cursor, so
/// implementations compose structurally (tuples, options, slices,
/// arrays, vectors). Structure — `Some` vs `None`, lengths, piece counts
/// — is *not* serialized: `restore` always runs against a value of the
/// shape `capture` saw (a state that grows serializes its own length).
/// Element round trips are bit-exact (see [`Elem::put_le`]): healed runs
/// are asserted byte-identical to clean runs.
pub trait Checkpoint {
    /// Append this value's bytes to `out`.
    fn capture(&self, out: &mut Vec<u8>);

    /// Rebuild this value in place from the front of `*cursor`, advancing
    /// it past exactly the bytes [`Checkpoint::capture`] wrote.
    fn restore(&mut self, cursor: &mut &[u8]);

    /// True when the state contains no corruption (e.g. all finite).
    /// The default trusts the state unconditionally.
    fn healthy(&self) -> bool {
        true
    }
}

/// Elements travel little-endian, bit-exact; health is
/// [`Elem::is_sound`], which is what the fault injector's corruptions
/// violate.
impl<T: Elem> Checkpoint for T {
    fn capture(&self, out: &mut Vec<u8>) {
        self.put_le(out);
    }
    fn restore(&mut self, cursor: &mut &[u8]) {
        *self = T::get_le(cursor);
        *cursor = &cursor[T::WIRE_BYTES..];
    }
    fn healthy(&self) -> bool {
        self.is_sound()
    }
}

impl Checkpoint for () {
    fn capture(&self, _out: &mut Vec<u8>) {}
    fn restore(&mut self, _cursor: &mut &[u8]) {}
}

impl Checkpoint for usize {
    fn capture(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(*self as u64).to_le_bytes());
    }
    fn restore(&mut self, cursor: &mut &[u8]) {
        let (head, rest) = cursor.split_at(8);
        *self = u64::from_le_bytes(head.try_into().expect("8-byte head")) as usize;
        *cursor = rest;
    }
}

impl<A: Checkpoint, B: Checkpoint> Checkpoint for (A, B) {
    fn capture(&self, out: &mut Vec<u8>) {
        self.0.capture(out);
        self.1.capture(out);
    }
    fn restore(&mut self, cursor: &mut &[u8]) {
        self.0.restore(cursor);
        self.1.restore(cursor);
    }
    fn healthy(&self) -> bool {
        self.0.healthy() && self.1.healthy()
    }
}

impl<T: Checkpoint> Checkpoint for Option<T> {
    fn capture(&self, out: &mut Vec<u8>) {
        if let Some(inner) = self {
            inner.capture(out);
        }
    }
    fn restore(&mut self, cursor: &mut &[u8]) {
        if let Some(inner) = self {
            inner.restore(cursor);
        }
    }
    fn healthy(&self) -> bool {
        self.as_ref().is_none_or(Checkpoint::healthy)
    }
}

impl<T: Checkpoint> Checkpoint for [T] {
    fn capture(&self, out: &mut Vec<u8>) {
        for v in self {
            v.capture(out);
        }
    }
    fn restore(&mut self, cursor: &mut &[u8]) {
        for v in self {
            v.restore(cursor);
        }
    }
    fn healthy(&self) -> bool {
        self.iter().all(Checkpoint::healthy)
    }
}

impl<T: Checkpoint> Checkpoint for Vec<T> {
    fn capture(&self, out: &mut Vec<u8>) {
        self[..].capture(out);
    }
    fn restore(&mut self, cursor: &mut &[u8]) {
        self[..].restore(cursor);
    }
    fn healthy(&self) -> bool {
        self[..].healthy()
    }
}

impl<T: Checkpoint, const N: usize> Checkpoint for [T; N] {
    fn capture(&self, out: &mut Vec<u8>) {
        self[..].capture(out);
    }
    fn restore(&mut self, cursor: &mut &[u8]) {
        self[..].restore(cursor);
    }
    fn healthy(&self) -> bool {
        self[..].healthy()
    }
}

/// What a step tells the driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Keep iterating.
    Continue,
    /// Converged / finished early — stop before `max_steps`.
    Done,
}

/// What recovery cost: how often the driver snapshotted, rolled back, and
/// re-ran work it had already done once.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Steps successfully executed (including replays).
    pub steps: usize,
    /// Snapshots taken.
    pub snapshots: usize,
    /// Rollbacks performed.
    pub restores: usize,
    /// Steps re-executed after a rollback.
    pub replayed_steps: usize,
}

/// Drive `step_fn` over `state` for up to `max_steps` iterations with
/// snapshot-every-`every` checkpointing and at most `max_restores`
/// rollbacks.
///
/// With `every == 0` this is the bare loop: no snapshot, no health probe
/// and no `catch_unwind`, so a panicking step unwinds to the caller (the
/// suite harness's retry). Otherwise each step runs under
/// `catch_unwind`; a panic or an unhealthy state at a checkpoint boundary
/// triggers restore-and-recompute from the last snapshot, which lives in
/// one reused byte buffer. Because fault-injection decisions advance a
/// global counter, a replayed step sees fresh decisions — recovery
/// converges instead of re-injecting the identical fault forever.
pub fn drive<S, F>(
    state: &mut S,
    max_steps: usize,
    every: usize,
    max_restores: usize,
    mut step_fn: F,
) -> Result<RecoveryStats, DpfError>
where
    S: Checkpoint,
    F: FnMut(&mut S, usize) -> Step,
{
    let mut stats = RecoveryStats::default();
    if every == 0 {
        for i in 0..max_steps {
            stats.steps += 1;
            if step_fn(state, i) == Step::Done {
                break;
            }
        }
        return Ok(stats);
    }
    let mut snap = Vec::new();
    state.capture(&mut snap);
    let mut snap_at = 0usize;
    stats.snapshots += 1;

    let mut i = 0usize;
    while i < max_steps {
        if let Ok(step) = catch_unwind(AssertUnwindSafe(|| step_fn(state, i))) {
            stats.steps += 1;
            i += 1;
            let done = step == Step::Done || i == max_steps;
            if !done && !i.is_multiple_of(every) {
                continue;
            }
            // A boundary, or early convergence between boundaries:
            // validate before trusting the state.
            if state.healthy() {
                if done {
                    return Ok(stats);
                }
                snap.clear();
                state.capture(&mut snap);
                snap_at = i;
                stats.snapshots += 1;
                continue;
            }
        }
        // The step panicked or left the state unsound: roll back to the
        // last snapshot.
        if stats.restores >= max_restores {
            return Err(DpfError::RecoveryExhausted {
                restores: stats.restores,
            });
        }
        stats.restores += 1;
        stats.replayed_steps += i - snap_at;
        state.restore(&mut &snap[..]);
        i = snap_at;
    }

    if state.healthy() {
        Ok(stats)
    } else {
        Err(DpfError::RecoveryExhausted {
            restores: stats.restores,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    struct Counter {
        v: f64,
    }

    impl Checkpoint for Counter {
        fn capture(&self, out: &mut Vec<u8>) {
            self.v.capture(out);
        }
        fn restore(&mut self, cursor: &mut &[u8]) {
            self.v.restore(cursor);
        }
        fn healthy(&self) -> bool {
            self.v.healthy()
        }
    }

    #[test]
    fn clean_run_snapshots_and_finishes() {
        let mut st = Counter { v: 0.0 };
        let stats = drive(&mut st, 10, 4, 3, |s, _| {
            s.v += 1.0;
            Step::Continue
        })
        .unwrap();
        assert_eq!(st.v, 10.0);
        assert_eq!(stats.steps, 10);
        assert_eq!(stats.restores, 0);
    }

    #[test]
    fn early_done_stops() {
        let mut st = Counter { v: 0.0 };
        let stats = drive(&mut st, 100, 8, 3, |s, _| {
            s.v += 1.0;
            if s.v >= 5.0 {
                Step::Done
            } else {
                Step::Continue
            }
        })
        .unwrap();
        assert_eq!(st.v, 5.0);
        assert_eq!(stats.steps, 5);
    }

    #[test]
    fn panic_rolls_back_and_replays() {
        let mut st = Counter { v: 0.0 };
        let panicked = Cell::new(false);
        let stats = drive(&mut st, 10, 4, 3, |s, i| {
            if i == 5 && !panicked.get() {
                panicked.set(true);
                panic!("injected");
            }
            s.v += 1.0;
            Step::Continue
        })
        .unwrap();
        assert_eq!(st.v, 10.0, "replay must end at the same state");
        assert_eq!(stats.restores, 1);
        assert_eq!(
            stats.replayed_steps, 1,
            "rolled back from i=5 to snapshot at 4"
        );
    }

    #[test]
    fn corruption_at_boundary_rolls_back() {
        let mut st = Counter { v: 0.0 };
        let corrupted = Cell::new(false);
        let stats = drive(&mut st, 8, 4, 3, |s, i| {
            s.v += 1.0;
            if i == 6 && !corrupted.get() {
                corrupted.set(true);
                s.v = f64::NAN;
            }
            Step::Continue
        })
        .unwrap();
        assert_eq!(st.v, 8.0);
        assert_eq!(stats.restores, 1);
    }

    #[test]
    fn persistent_failure_exhausts() {
        let mut st = Counter { v: 0.0 };
        let err = drive(&mut st, 10, 2, 2, |_, i| {
            if i == 3 {
                panic!("always");
            }
            Step::Continue
        })
        .unwrap_err();
        assert_eq!(err, DpfError::RecoveryExhausted { restores: 2 });
    }

    #[test]
    fn tuple_state_checkpoints_both_halves() {
        let mut st = (Counter { v: 1.0 }, Counter { v: 2.0 });
        let mut snap = Vec::new();
        st.capture(&mut snap);
        st.0.v = 9.0;
        st.1.v = f64::NAN;
        assert!(!st.healthy());
        let mut cursor = &snap[..];
        st.restore(&mut cursor);
        assert!(
            cursor.is_empty(),
            "restore reads exactly what capture wrote"
        );
        assert_eq!((st.0.v, st.1.v), (1.0, 2.0));
        assert!(st.healthy());
    }
}
