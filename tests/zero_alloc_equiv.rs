//! Property tests: the zero-allocation hot paths are observationally
//! identical to their allocating counterparts.
//!
//! Every `_into` variant must be bit-identical to the allocating version
//! in all four observable dimensions: result data, result layout,
//! instrumented FLOP count, and recorded communication events. The
//! chunked `permute` fast path is checked against a naive per-element
//! reference for random shapes and axis orders up to rank 4.

use dpf_array::{DistArray, IndexIter, PAR, SER};
use dpf_comm::{
    cshift, cshift_into, eoshift, eoshift_into, star_stencil, stencil, stencil_into,
    StencilBoundary,
};
use dpf_core::{Ctx, Machine};
use proptest::prelude::*;

fn ctx(p: usize) -> Ctx {
    Ctx::new(Machine::cm5(p))
}

/// Two contexts with identical machines: one drives the allocating path,
/// the other the `_into` path, so instrumentation can be compared.
fn ctx_pair(p: usize) -> (Ctx, Ctx) {
    (ctx(p), ctx(p))
}

fn assert_instr_identical(a: &Ctx, b: &Ctx) -> Result<(), String> {
    prop_assert_eq!(a.instr.flops(), b.instr.flops());
    prop_assert_eq!(a.instr.comm_snapshot(), b.instr.comm_snapshot());
    Ok(())
}

proptest! {
    #[test]
    fn map_into_equals_map(n in 1usize..2500, p in 1usize..9) {
        let (ca, cb) = ctx_pair(p);
        let a = DistArray::<f64>::from_fn(&ca, &[n], &[PAR], |i| i[0] as f64 * 0.5 - 3.0);
        let b = DistArray::<f64>::from_fn(&cb, &[n], &[PAR], |i| i[0] as f64 * 0.5 - 3.0);
        let want = a.map(&ca, 2, |x| 1.5 * x + 0.25);
        let mut got = DistArray::<f64>::zeros(&cb, &[n], &[PAR]);
        b.map_into(&cb, 2, &mut got, |x| 1.5 * x + 0.25);
        prop_assert_eq!(&got, &want); // data AND layout
        assert_instr_identical(&ca, &cb)?;
    }

    #[test]
    fn zip_map_into_equals_zip_map(n in 1usize..2500, p in 1usize..9) {
        let (ca, cb) = ctx_pair(p);
        let mk = |c: &Ctx, salt: f64| {
            DistArray::<f64>::from_fn(c, &[n], &[PAR], move |i| i[0] as f64 * salt + 1.0)
        };
        let (a1, a2) = (mk(&ca, 0.75), mk(&ca, -0.25));
        let (b1, b2) = (mk(&cb, 0.75), mk(&cb, -0.25));
        let want = a1.zip_map(&ca, 1, &a2, |x, y| x * y - x);
        let mut got = DistArray::<f64>::zeros(&cb, &[n], &[PAR]);
        b1.zip_map_into(&cb, 1, &b2, &mut got, |x, y| x * y - x);
        prop_assert_eq!(&got, &want);
        assert_instr_identical(&ca, &cb)?;
    }

    #[test]
    fn cshift_into_equals_cshift(
        rows in 1usize..40,
        cols in 1usize..40,
        axis in 0usize..2,
        shift in -90isize..90,
        p in 1usize..9,
    ) {
        let (ca, cb) = ctx_pair(p);
        let mk = |c: &Ctx| {
            DistArray::<i32>::from_fn(c, &[rows, cols], &[PAR, PAR], |i| {
                (i[0] * cols + i[1]) as i32
            })
        };
        let a = mk(&ca);
        let b = mk(&cb);
        let want = cshift(&ca, &a, axis, shift);
        let mut got = DistArray::<i32>::zeros(&cb, &[rows, cols], &[PAR, PAR]);
        cshift_into(&cb, &b, axis, shift, &mut got);
        prop_assert_eq!(&got, &want);
        assert_instr_identical(&ca, &cb)?;
    }

    #[test]
    fn eoshift_into_equals_eoshift(
        n in 1usize..120,
        shift in -130isize..130,
        fill in -50i32..50,
        p in 1usize..9,
    ) {
        let (ca, cb) = ctx_pair(p);
        let mk = |c: &Ctx| DistArray::<i32>::from_fn(c, &[n], &[PAR], |i| i[0] as i32 + 7);
        let a = mk(&ca);
        let b = mk(&cb);
        let want = eoshift(&ca, &a, 0, shift, fill);
        let mut got = DistArray::<i32>::zeros(&cb, &[n], &[PAR]);
        eoshift_into(&cb, &b, 0, shift, fill, &mut got);
        prop_assert_eq!(&got, &want);
        assert_instr_identical(&ca, &cb)?;
    }

    #[test]
    fn stencil_into_equals_stencil(
        rows in 1usize..24,
        cols in 1usize..24,
        cyclic in 0usize..2,
        p in 1usize..9,
    ) {
        let (ca, cb) = ctx_pair(p);
        let mk = |c: &Ctx| {
            DistArray::<f64>::from_fn(c, &[rows, cols], &[PAR, SER], |i| {
                (i[0] * 31 + i[1] * 7) as f64 * 0.125
            })
        };
        let a = mk(&ca);
        let b = mk(&cb);
        let pts = star_stencil(2, -4.0, 1.0);
        let boundary = if cyclic == 1 {
            StencilBoundary::Cyclic
        } else {
            StencilBoundary::Fill(1.5)
        };
        let want = stencil(&ca, &a, &pts, boundary);
        let mut got = DistArray::<f64>::zeros(&cb, &[rows, cols], &[PAR, SER]);
        stencil_into(&cb, &b, &pts, boundary, &mut got);
        prop_assert_eq!(&got, &want);
        assert_instr_identical(&ca, &cb)?;
    }

    #[test]
    fn permute_equals_naive_reference(
        d0 in 1usize..9,
        d1 in 1usize..9,
        d2 in 1usize..9,
        d3 in 1usize..9,
        rank in 1usize..5,
        perm_seed in 0usize..10_000,
        p in 1usize..9,
    ) {
        let shape: Vec<usize> = [d0, d1, d2, d3][..rank].to_vec();
        // A random permutation of the axes via seeded Fisher–Yates.
        let mut order: Vec<usize> = (0..rank).collect();
        let mut state = (perm_seed as u64)
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        for i in (1..rank).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        let ctx = ctx(p);
        let a = DistArray::<i32>::from_fn(&ctx, &shape, &vec![PAR; rank], |idx| {
            idx.iter().fold(0i32, |acc, &i| acc * 64 + i as i32)
        });
        let out = a.permute(&ctx, &order);
        // Reference: out[j] = a[i] where j[k] = i[order[k]].
        let new_shape: Vec<usize> = order.iter().map(|&d| shape[d]).collect();
        prop_assert_eq!(out.shape(), &new_shape[..]);
        for jdx in IndexIter::new(&new_shape) {
            let mut idx = vec![0usize; rank];
            for (k, &d) in order.iter().enumerate() {
                idx[d] = jdx[k];
            }
            prop_assert_eq!(out.get(&jdx), a.get(&idx));
        }
    }
}
