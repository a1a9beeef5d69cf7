//! The virtual machine model.
//!
//! The paper assumes the HPF execution model: a single-threaded control
//! program operating on arrays whose *parallel* axes are distributed over
//! the processors of a scalable machine (the authors' instance ran on a
//! CM-5). We reproduce that model with a *virtual* processor set of size
//! [`Machine::nprocs`]: array layouts and all communication accounting are
//! computed for `nprocs` virtual processors, while the element-wise compute
//! itself executes on the host's real cores via rayon.
//!
//! Keeping the virtual processor count independent of the physical thread
//! count is what lets the suite report communication volumes and pattern
//! counts for any machine size — exactly what the paper's Tables 3, 4, 6
//! and 7 tabulate — on a laptop.
//!
//! The same machine description also drives the SPMD backend
//! ([`crate::spmd::Backend::Spmd`]), which runs one worker thread per
//! virtual processor and exchanges block data over typed channels instead
//! of modeling the traffic analytically; both backends share the layouts
//! and the accounting, so switching backends changes how the bytes move,
//! not how many are reported.

/// Description of the (virtual) data-parallel machine a benchmark runs on.
#[derive(Clone, Debug, PartialEq)]
pub struct Machine {
    /// Number of virtual processors the parallel axes are distributed over.
    pub nprocs: usize,
    /// Peak floating-point rate per virtual processor, in MFLOPS.
    ///
    /// Used only for the *arithmetic efficiency* metric of the linear
    /// algebra codes (paper §1.5, attribute 2). The CM-5 figure was
    /// 32 MFLOPS per vector unit; the CM-5E 40 MFLOPS.
    pub peak_mflops_per_proc: f64,
}

impl Machine {
    /// A machine with `nprocs` virtual processors and the CM-5 per-node
    /// peak rate (32 MFLOPS per vector unit).
    pub fn cm5(nprocs: usize) -> Self {
        assert!(nprocs > 0, "machine must have at least one processor");
        Machine {
            nprocs,
            peak_mflops_per_proc: 32.0,
        }
    }

    /// A machine sized to the host: one virtual processor per available
    /// hardware thread, with a peak rate calibrated loosely to modern
    /// scalar cores (the exact value only scales the efficiency metric).
    pub fn host() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Machine {
            nprocs: n,
            peak_mflops_per_proc: 2000.0,
        }
    }

    /// Aggregate peak FLOP rate of all participating processors, in FLOPs/s.
    pub fn peak_flops(&self) -> f64 {
        self.nprocs as f64 * self.peak_mflops_per_proc * 1.0e6
    }
}

impl Default for Machine {
    fn default() -> Self {
        Machine::cm5(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cm5_peak_rate_matches_paper_footnote() {
        // Paper footnote 1: 32 MFLOPS per VU on the CM-5.
        let m = Machine::cm5(32);
        assert_eq!(m.peak_flops(), 32.0 * 32.0 * 1e6);
    }

    #[test]
    fn host_machine_has_processors() {
        assert!(Machine::host().nprocs >= 1);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_rejected() {
        let _ = Machine::cm5(0);
    }
}
