//! The DPF linear-algebra library benchmarks.
//!
//! Eight function suites (paper §3): dense matrix–vector multiplication
//! in four layouts ([`matvec`]), LU ([`lu`]) and QR ([`qr`]) dense
//! solvers, Gauss–Jordan elimination ([`gauss_jordan`]), two tridiagonal
//! solvers — parallel cyclic reduction ([`pcr`]) and conjugate gradients
//! ([`conj_grad`]) — the Jacobi eigensolver ([`jacobi`]) and the FFT
//! wrappers ([`fft_bench`]). Each module provides the instrumented
//! kernels, a deterministic workload generator and a verifier against a
//! serial reference ([`reference`]).

#![warn(missing_docs)]

pub mod conj_grad;
pub mod fft_bench;
pub mod gauss_jordan;
pub mod jacobi;
pub mod lu;
pub mod matvec;
pub mod pcr;
pub mod qr;
pub mod reference;

#[cfg(test)]
mod proptests {
    use dpf_array::{DistArray, PAR};
    use dpf_core::{Ctx, Machine};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn lu_solves_random_diagonally_dominant(n in 2usize..24, r in 1usize..4) {
            let ctx = Ctx::new(Machine::cm5(4));
            let (a, b) = crate::lu::workload(&ctx, n, r);
            let f = crate::lu::lu_factor(&ctx, &a);
            let x = crate::lu::lu_solve(&ctx, &f, &b);
            prop_assert!(crate::lu::verify(&a, &b, &x, 1e-8).is_pass());
        }

        #[test]
        fn qr_recovers_known_solution(m in 4usize..28, extra in 0usize..10, r in 1usize..3) {
            let n = m.saturating_sub(extra).max(2);
            let ctx = Ctx::new(Machine::cm5(4));
            let (a, b, x_true) = crate::qr::workload(&ctx, m, n, r);
            let f = crate::qr::qr_factor(&ctx, &a);
            let x = crate::qr::qr_solve(&ctx, &f, &b);
            prop_assert!(crate::qr::verify(&x, &x_true, 1e-6).is_pass());
        }

        #[test]
        fn pcr_matches_thomas(n in 1usize..64, batch in 1usize..5) {
            let ctx = Ctx::new(Machine::cm5(4));
            let sys = crate::pcr::workload(&ctx, &[batch, n], &[PAR, PAR]);
            let x = crate::pcr::pcr_solve(&ctx, &sys);
            prop_assert!(crate::pcr::verify(&sys, &x, 1e-8).is_pass());
        }

        #[test]
        fn cg_and_pcr_agree(n in 4usize..48) {
            let ctx = Ctx::new(Machine::cm5(4));
            let sys = crate::conj_grad::workload(&ctx, n);
            let (out, _) = crate::conj_grad::cg_solve(&ctx, &sys, 1e-12, 10 * n).unwrap();
            let tri = crate::pcr::Tridiag {
                lower: sys.lower.clone(),
                diag: sys.diag.clone(),
                upper: sys.upper.clone(),
                rhs: sys.rhs.clone(),
            };
            let xp = crate::pcr::pcr_solve(&ctx, &tri);
            for (p, q) in out.x.to_vec().iter().zip(xp.to_vec()) {
                prop_assert!((p - q).abs() < 1e-7, "{p} vs {q}");
            }
        }

        #[test]
        fn gauss_jordan_matches_lu(n in 2usize..20) {
            let ctx = Ctx::new(Machine::cm5(4));
            let (a, b) = crate::gauss_jordan::workload(&ctx, n);
            let x_gj = crate::gauss_jordan::gauss_jordan_solve(&ctx, &a, &b);
            let b2 = DistArray::<f64>::from_vec(
                &ctx, &[n, 1], &[PAR, PAR], b.to_vec(),
            );
            let f = crate::lu::lu_factor(&ctx, &a);
            let x_lu = crate::lu::lu_solve(&ctx, &f, &b2);
            for (p, q) in x_gj.to_vec().iter().zip(x_lu.to_vec()) {
                prop_assert!((p - q).abs() < 1e-8);
            }
        }

        #[test]
        fn jacobi_preserves_trace(half_n in 2usize..8) {
            let n = 2 * half_n;
            let ctx = Ctx::new(Machine::cm5(4));
            let a = crate::jacobi::workload(&ctx, n);
            let (out, _) = crate::jacobi::jacobi_eigen(&ctx, &a, 1e-11, 40).unwrap();
            let tr_a: f64 = (0..n).map(|i| a.as_slice()[i * n + i]).sum();
            let tr_l: f64 = out.eigenvalues.iter().sum();
            prop_assert!((tr_a - tr_l).abs() < 1e-8 * tr_a.abs().max(1.0));
        }
    }
}
