//! The benchmark execution context.

use std::sync::Arc;

use crate::fault::{FaultInjector, FaultPlan};
use crate::instr::{CommKey, CommPattern, Instr};
use crate::machine::Machine;
use crate::pool::BufferPool;
use crate::spmd::{Backend, LinkMeter, Transport, TransportCfg};

/// Execution context threaded through every DPF operation: the virtual
/// [`Machine`] plus the run's [`Instr`]umentation and the host-side
/// [`BufferPool`] that lets iterative kernels recycle output buffers.
///
/// A `Ctx` is cheap to create and owns no array data beyond retired pool
/// buffers; benchmarks create one per run so metric state never leaks
/// between runs.
#[derive(Debug, Default)]
pub struct Ctx {
    /// The virtual machine the run is laid out for.
    pub machine: Machine,
    /// The run's metric state.
    pub instr: Instr,
    /// Free list of retired output buffers (host-side optimization; never
    /// affects the recorded §1.5 metrics). Behind an `Arc` so several
    /// concurrent contexts (campaign tenants) can share one budgeted
    /// pool; a plain [`Ctx::build`] still gets a private pool.
    pub pool: Arc<BufferPool>,
    /// Deterministic fault engine; disabled by default, armed via
    /// [`Ctx::with_faults`].
    pub faults: FaultInjector,
    /// Which execution engine runs the communication primitives
    /// ([`Backend::Virtual`] by default).
    pub backend: Backend,
    /// Bytes/messages that actually crossed an SPMD channel; stays zero
    /// under the virtual backend.
    pub link: LinkMeter,
}

impl Ctx {
    /// Full constructor: machine, optional fault plan, and backend.
    pub fn build(machine: Machine, plan: Option<FaultPlan>, backend: Backend) -> Self {
        Ctx::build_shared(machine, plan, backend, Arc::new(BufferPool::new()))
    }

    /// [`Ctx::build`] with a caller-supplied (possibly shared) buffer
    /// pool. Sharing is safe: the pool is thread-safe, exact-fit, and
    /// invisible to the §1.5 metric ledger, so runs sharing a pool
    /// record the same metrics as runs with private pools.
    pub fn build_shared(
        machine: Machine,
        plan: Option<FaultPlan>,
        backend: Backend,
        pool: Arc<BufferPool>,
    ) -> Self {
        Ctx {
            machine,
            instr: Instr::new(),
            pool,
            faults: match plan {
                Some(plan) => FaultInjector::new(plan),
                None => FaultInjector::disabled(),
            },
            backend,
            link: LinkMeter::new(),
        }
    }

    /// Context for the given machine.
    pub fn new(machine: Machine) -> Self {
        Ctx::build(machine, None, Backend::Virtual)
    }

    /// Context for the given machine running on `backend`.
    pub fn with_backend(machine: Machine, backend: Backend) -> Self {
        Ctx::build(machine, None, backend)
    }

    /// Context for the given machine with an armed fault plan.
    pub fn with_faults(machine: Machine, plan: FaultPlan) -> Self {
        Ctx::build(machine, Some(plan), Backend::Virtual)
    }

    /// Context sized to the host (one virtual processor per hardware
    /// thread).
    pub fn host() -> Self {
        Ctx::new(Machine::host())
    }

    /// Number of virtual processors.
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.machine.nprocs
    }

    /// True when the SPMD message-passing backend is selected.
    #[inline]
    pub fn spmd(&self) -> bool {
        self.backend.is_spmd()
    }

    /// The SPMD transport collectives pass to
    /// [`crate::spmd::run_workers`]: the link meter, the fault plan's link
    /// model and kill schedule, and the default transport limits.
    #[inline]
    pub fn transport(&self) -> Transport<'_> {
        Transport::new(&self.link, self.faults.plan(), TransportCfg::default())
    }

    /// Charge `n` FLOPs (see [`crate::flops`] for the conventions).
    #[inline]
    pub fn add_flops(&self, n: u64) {
        self.instr.add_flops(n);
    }

    /// Record one communication event.
    #[inline]
    pub fn record_comm(
        &self,
        pattern: CommPattern,
        src_rank: usize,
        dst_rank: usize,
        elements: u64,
        offproc_bytes: u64,
    ) {
        self.instr.record_comm(
            CommKey {
                pattern,
                src_rank: src_rank as u8,
                dst_rank: dst_rank as u8,
            },
            elements,
            offproc_bytes,
        );
    }

    /// Time `f` as busy (non-idle) work.
    #[inline]
    pub fn busy<R>(&self, f: impl FnOnce() -> R) -> R {
        self.instr.busy(f)
    }

    /// Run `f` as a named, separately-reported phase.
    #[inline]
    pub fn phase<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        self.instr.phase(name, f)
    }

    /// Run `f` with communication recording suppressed (for composite
    /// primitives that record themselves once).
    #[inline]
    pub fn suppress_comm<R>(&self, f: impl FnOnce() -> R) -> R {
        self.instr.suppress_comm(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_delegates_to_instr() {
        let ctx = Ctx::new(Machine::cm5(8));
        ctx.add_flops(7);
        ctx.record_comm(CommPattern::Broadcast, 0, 2, 16, 64);
        assert_eq!(ctx.instr.flops(), 7);
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Broadcast), 1);
        assert_eq!(ctx.nprocs(), 8);
    }
}
