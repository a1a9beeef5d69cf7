//! The 20 DPF application benchmarks (paper §4).
//!
//! Every module implements one application code: an instrumented kernel
//! built on the `dpf-array`/`dpf-comm` substrate, a deterministic
//! workload generator, a physics-based verification, and unit tests that
//! pin the Table 6/7 communication inventory.

#![warn(missing_docs)]

pub mod boson;
pub mod diff_1d;
pub mod diff_2d;
pub mod diff_3d;
pub mod ellip_2d;
pub mod fem_3d;
pub mod fermion;
pub mod gmo;
pub mod ks_spectral;
pub mod md;
pub mod mdcell;
pub mod n_body;
pub mod pic_gather_scatter;
pub mod pic_simple;
pub mod qcd_kernel;
pub mod qmc;
pub mod qptransport;
pub mod rp;
pub mod step4;
pub mod util;
pub mod wave_1d;

#[cfg(test)]
mod proptests {
    use dpf_core::{Ctx, Machine};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn diff_1d_matches_serial_for_random_params(
            nx in 8usize..128,
            steps in 1usize..8,
            lam in 0.05f64..0.49,
        ) {
            let ctx = Ctx::new(Machine::cm5(4));
            let p = crate::diff_1d::Params { nx, steps, lambda: lam };
            let (_, v, _) = crate::diff_1d::run(&ctx, &p).unwrap();
            prop_assert!(v.is_pass(), "{v}");
        }

        #[test]
        fn n_body_variants_agree_for_random_n(n in 4usize..40, variant_pick in 0usize..8) {
            let variant = crate::n_body::Variant::ALL[variant_pick];
            let ctx = Ctx::new(Machine::cm5(4));
            let (_, _, v) = crate::n_body::run(
                &ctx, &crate::n_body::Params { n, eps2: 1e-2 }, variant,
            );
            prop_assert!(v.is_pass(), "{} n={n}: {v}", variant.name());
        }

        #[test]
        fn results_are_machine_size_independent(procs in 1usize..64) {
            // The virtual machine size must never change answers — only
            // the communication accounting.
            let p = crate::diff_3d::Params { n: 8, steps: 3, lambda: 0.1 };
            let ctx_ref = Ctx::new(Machine::cm5(1));
            let (u_ref, _, _) = crate::diff_3d::run(&ctx_ref, &p).unwrap();
            let ctx = Ctx::new(Machine::cm5(procs));
            let (u, _, _) = crate::diff_3d::run(&ctx, &p).unwrap();
            for (a, b) in u.as_slice().iter().zip(u_ref.as_slice()) {
                prop_assert!((a - b).abs() < 1e-15);
            }
        }

        #[test]
        fn pic_deposit_conserves_charge_for_random_clouds(
            np in 16usize..300,
            ng in 2usize..8,
        ) {
            let ctx = Ctx::new(Machine::cm5(4));
            let p = crate::pic_gather_scatter::Params { np, ng, steps: 1 };
            let (cells, charge) = crate::pic_gather_scatter::workload(&ctx, &p);
            let grid = crate::pic_gather_scatter::deposit_sorted(&ctx, &p, &cells, &charge);
            let total_g: f64 = grid.as_slice().iter().sum();
            let total_q: f64 = charge.as_slice().iter().sum();
            prop_assert!((total_g - total_q).abs() < 1e-9 * total_q.abs().max(1.0));
        }

        #[test]
        fn qptransport_feasible_for_random_instances(
            n_src in 2usize..20,
            n_dst in 2usize..16,
            extra in 0usize..128,
        ) {
            let n_edges = (n_src.max(n_dst) + extra).max(8);
            let ctx = Ctx::new(Machine::cm5(4));
            let p = crate::qptransport::Params { n_src, n_dst, n_edges, iters: 400 };
            let (_, v) = crate::qptransport::run(&ctx, &p);
            prop_assert!(v.is_pass(), "{v}");
        }
    }
}
