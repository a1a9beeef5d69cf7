//! Collective communication for the DPF suite.
//!
//! These are the data-motion primitives the paper's §1.5 communication
//! inventory names: CSHIFT/EOSHIFT, SPREAD/broadcast, reductions, scans
//! (plain and segmented), gather/scatter with combiners, send/get, sort,
//! the AAPC transpose, and the composite stencil driver. Each primitive
//! records `(pattern, src rank, dst rank, elements, exact off-processor
//! bytes under the block layouts)` into the run's [`Ctx`](dpf_core::Ctx)
//! — the raw material for the paper's Tables 3, 6 and 7.
//!
//! Two execution backends share that accounting. Under the default
//! [`Backend::Virtual`](dpf_core::Backend) a primitive computes its
//! result on the host (rayon pool); under
//! [`Backend::Spmd`](dpf_core::Backend) it runs as one worker thread per
//! virtual processor exchanging block data over typed channels (see the
//! `spmd` module), producing element-identical results while actually
//! moving the modeled bytes. The reductions, scans, gathers and scatters
//! state their element rule once: the SPMD fold, axis and route
//! protocols also run that rule serially on the host, so the backend
//! choice is made inside the protocol, not in each primitive. The sample
//! sort keeps its host implementation under both backends: the paper
//! treats it as a composite benchmark whose communication is recorded
//! through the gather/scatter primitives it is built from.

#![warn(missing_docs)]

pub mod fuse;
pub mod gather;
pub mod reduce;
pub mod scan;
pub mod shift;
pub mod sort;
mod spmd;
pub mod spread;
pub mod stencil;
pub mod transpose;

pub use gather::{
    gather, gather_combine, gather_nd, get, scatter, scatter_combine, scatter_nd_combine, send,
    try_gather, try_gather_nd, try_scatter, try_scatter_combine, try_scatter_nd_combine, Combine,
};
pub use reduce::{dot, max_all, maxloc_abs, min_all, product_all, sum_all, sum_axis, sum_masked};
pub use scan::{scan_add, scan_add_exclusive, segmented_copy_scan, segmented_scan_add};
pub use shift::{cshift, cshift_into, eoshift, eoshift_into};
pub use sort::{apply_perm, sort_keys, sort_keys_f64};
pub use spread::{broadcast, broadcast_scalar, spread};
pub use stencil::{star_stencil, stencil, stencil_into, StencilBoundary, StencilPoint};
pub use transpose::{transpose, transpose_axes, try_transpose};

#[cfg(test)]
mod proptests {
    use super::*;
    use dpf_array::{DistArray, PAR};
    use dpf_core::{Ctx, Machine};
    use proptest::prelude::*;

    fn ctx(p: usize) -> Ctx {
        Ctx::new(Machine::cm5(p))
    }

    proptest! {
        #[test]
        fn cshift_inverse(n in 1usize..64, shift in -70isize..70, p in 1usize..9) {
            let ctx = ctx(p);
            let a = DistArray::<i32>::from_fn(&ctx, &[n], &[PAR], |i| i[0] as i32);
            let b = cshift(&ctx, &cshift(&ctx, &a, 0, shift), 0, -shift);
            prop_assert_eq!(b.to_vec(), a.to_vec());
        }

        #[test]
        fn cshift_matches_rotate(n in 1usize..64, shift in 0isize..64) {
            let ctx = ctx(4);
            let a = DistArray::<i32>::from_fn(&ctx, &[n], &[PAR], |i| i[0] as i32);
            let s = cshift(&ctx, &a, 0, shift);
            let mut expect: Vec<i32> = (0..n as i32).collect();
            expect.rotate_left(shift as usize % n);
            prop_assert_eq!(s.to_vec(), expect);
        }

        #[test]
        fn scan_then_diff_recovers(n in 2usize..50) {
            let ctx = ctx(4);
            let a = DistArray::<i32>::from_fn(&ctx, &[n], &[PAR], |i| (i[0] * 7 % 11) as i32);
            let s = scan_add(&ctx, &a, 0);
            let sv = s.to_vec();
            let av = a.to_vec();
            prop_assert_eq!(sv[0], av[0]);
            for i in 1..n {
                prop_assert_eq!(sv[i] - sv[i - 1], av[i]);
            }
        }

        #[test]
        fn reduction_matches_serial_sum(n in 1usize..200, p in 1usize..17) {
            let ctx = ctx(p);
            let a = DistArray::<i32>::from_fn(&ctx, &[n], &[PAR], |i| i[0] as i32 - 50);
            let total = sum_all(&ctx, &a);
            let serial: i32 = (0..n as i32).map(|i| i - 50).sum();
            prop_assert_eq!(total, serial);
        }

        #[test]
        fn gather_scatter_roundtrip(n in 1usize..60) {
            // Scattering through a permutation then gathering through it
            // recovers the original array.
            let ctx = ctx(4);
            let src = DistArray::<i32>::from_fn(&ctx, &[n], &[PAR], |i| (i[0] * 3) as i32);
            let idx = DistArray::<i32>::from_fn(&ctx, &[n], &[PAR], |i| {
                ((i[0] * 7 + 3) % n) as i32
            });
            // Only meaningful when the map is a bijection.
            let mut seen = vec![false; n];
            let mut bijective = true;
            for &i in idx.as_slice() {
                if seen[i as usize] { bijective = false; break; }
                seen[i as usize] = true;
            }
            prop_assume!(bijective);
            let mut dst = DistArray::<i32>::zeros(&ctx, &[n], &[PAR]);
            scatter(&ctx, &mut dst, &idx, &src);
            let back = gather(&ctx, &dst, &idx);
            prop_assert_eq!(back.to_vec(), src.to_vec());
        }

        #[test]
        fn spread_then_sum_axis_multiplies(n in 1usize..30, copies in 1usize..8) {
            let ctx = ctx(4);
            let a = DistArray::<i32>::from_fn(&ctx, &[n], &[PAR], |i| i[0] as i32 + 1);
            let s = spread(&ctx, &a, 0, copies, PAR);
            let r = sum_axis(&ctx, &s, 0);
            let expect: Vec<i32> = (0..n).map(|i| (i as i32 + 1) * copies as i32).collect();
            prop_assert_eq!(r.to_vec(), expect);
        }

        #[test]
        fn sort_produces_sorted_permutation(keys in prop::collection::vec(-100i32..100, 1..80)) {
            let ctx = ctx(4);
            let n = keys.len();
            let a = DistArray::<i32>::from_vec(&ctx, &[n], &[PAR], keys.clone());
            let (sorted, perm) = sort_keys(&ctx, &a);
            let sv = sorted.to_vec();
            for w in sv.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
            // perm is a permutation of 0..n.
            let mut pv: Vec<i32> = perm.to_vec();
            pv.sort_unstable();
            prop_assert_eq!(pv, (0..n as i32).collect::<Vec<_>>());
            // Applying perm to the keys yields the sorted order.
            let applied = apply_perm(&ctx, &a, &perm);
            prop_assert_eq!(applied.to_vec(), sv);
        }

        #[test]
        fn transpose_involution(r in 1usize..12, c in 1usize..12, p in 1usize..9) {
            let ctx = ctx(p);
            let a = DistArray::<i32>::from_fn(&ctx, &[r, c], &[PAR, PAR], |i| {
                (i[0] * 31 + i[1]) as i32
            });
            let tt = transpose(&ctx, &transpose(&ctx, &a));
            prop_assert_eq!(tt.to_vec(), a.to_vec());
        }

        #[test]
        fn stencil_equals_cshift_composition(n in 2usize..40) {
            let ctx = ctx(4);
            let a = DistArray::<f64>::from_fn(&ctx, &[n], &[PAR], |i| (i[0] * i[0]) as f64);
            let pts = star_stencil(1, -2.0, 1.0);
            let s = stencil(&ctx, &a, &pts, StencilBoundary::Cyclic);
            let left = cshift(&ctx, &a, 0, -1);
            let right = cshift(&ctx, &a, 0, 1);
            let composed = left.zip_map(&ctx, 1, &right, |l, r| l + r)
                .zip_map(&ctx, 2, &a, |lr, c| lr - 2.0 * c);
            for (x, y) in s.to_vec().iter().zip(composed.to_vec()) {
                prop_assert!((x - y).abs() < 1e-9);
            }
        }

        #[test]
        fn segmented_scan_is_per_segment_prefix(n in 1usize..60, seg_every in 1usize..10) {
            let ctx = ctx(2);
            let a = DistArray::<i32>::from_fn(&ctx, &[n], &[PAR], |i| i[0] as i32 + 1);
            let seg = DistArray::<bool>::from_fn(&ctx, &[n], &[PAR], |i| i[0] % seg_every == 0);
            let s = segmented_scan_add(&ctx, &a, &seg, 0);
            let sv = s.to_vec();
            let mut acc = 0;
            for (i, &got) in sv.iter().enumerate() {
                if i % seg_every == 0 { acc = 0; }
                acc += i as i32 + 1;
                prop_assert_eq!(got, acc);
            }
        }
    }
}
