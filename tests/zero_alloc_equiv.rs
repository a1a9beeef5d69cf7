//! Property tests: the zero-allocation hot paths are observationally
//! identical to their allocating counterparts.
//!
//! Every `_into` variant must be bit-identical to the allocating version
//! in all four observable dimensions: result data, result layout,
//! instrumented FLOP count, and recorded communication events. The
//! chunked `permute` fast path is checked against a naive per-element
//! reference for random shapes and axis orders up to rank 4, and so are
//! the host shifts — eager, fused and the stencil's — against a
//! per-element transcription of the CMF shift rule. A primitive that
//! takes its output from the pool must overwrite whatever a retired
//! buffer held.

use dpf_array::{AxisKind, DistArray, Expr, IndexIter, PAR, SER};
use dpf_comm::{
    broadcast, cshift, cshift_into, eoshift, eoshift_into, fuse, spread, star_stencil, stencil,
    stencil_into, StencilBoundary, StencilPoint,
};
use dpf_core::{Backend, Ctx, Machine};
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

/// The CMF/HPF shift rule, transcribed per element: `out(i)` reads
/// `a(i + offset)`, each index wrapped modulo its extent when `fill` is
/// `None`, and `fill` wherever an index leaves the array otherwise.
fn shifted_ref(a: &DistArray<f64>, offset: &[isize], fill: Option<f64>) -> Vec<f64> {
    IndexIter::new(a.shape())
        .map(|mut idx| {
            for (d, i) in idx.iter_mut().enumerate() {
                let (j, n) = (*i as isize + offset[d], a.shape()[d] as isize);
                match fill {
                    _ if (0..n).contains(&j) => *i = j as usize,
                    None => *i = j.rem_euclid(n) as usize,
                    Some(v) => return v,
                }
            }
            a.get(&idx)
        })
        .collect()
}

/// A rank-`rank` shape from raw draws, capped so that the length reaches
/// past `PAR_THRESHOLD` (16 384) at every rank and straddles the fused
/// evaluator's chunk (1 024) and the stencil window (4 096).
fn shape_of(rank: usize, raw: &[usize]) -> Vec<usize> {
    let cap = [20_000, 150, 30, 13][rank - 1];
    raw[..rank].iter().map(|&r| 1 + r % cap).collect()
}

/// A shift in `[-(n + 2), n + 2]` drawn from `seed` and `salt`: past the
/// extent `n` either way.
fn shift_for(seed: u64, salt: usize, n: usize) -> isize {
    let mixed = (seed ^ salt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16;
    (mixed % (2 * n as u64 + 5)) as isize - (n as isize + 2)
}

/// Distinct, non-dyadic values, so a misread element or a reordered sum
/// shows in the bits.
fn values(ctx: &Ctx, shape: &[usize]) -> DistArray<f64> {
    DistArray::<f64>::from_fn(ctx, shape, &vec![PAR; shape.len()], |i| {
        let flat = i.iter().zip(shape).fold(0, |f, (&x, &n)| f * n + x);
        flat as f64 * 0.37 - 5.0
    })
}

/// The first flat index where `got` and `want` differ in their bits.
fn same_bits(what: &str, got: &[f64], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} elements, want {}",
            got.len(),
            want.len()
        ));
    }
    match (0..got.len()).find(|&k| got[k].to_bits() != want[k].to_bits()) {
        Some(k) => Err(format!("{what}: flat {k} is {}, want {}", got[k], want[k])),
        None => Ok(()),
    }
}

/// SPREAD and broadcast take their output from the pool: with a
/// NaN-filled buffer of the output's exact length on the shelf, the
/// result must still match a fresh context's bit for bit, on the host
/// path and on the SPMD pull.
#[test]
fn pooled_spread_never_leaks_stale_data() {
    type Replicate = fn(&Ctx, &DistArray<f64>, usize, usize, AxisKind) -> DistArray<f64>;
    let ops: [(&str, Replicate); 2] = [("spread", spread), ("broadcast", broadcast)];
    let backends = [
        (Backend::Virtual, 5),
        (Backend::Spmd, 2),
        (Backend::Spmd, 5),
    ];
    let sources: [&[usize]; 2] = [&[13], &[6, 9]];
    for (backend, p) in backends {
        let make = || Ctx::with_backend(Machine::cm5(p), backend);
        for shape in sources {
            for axis in 0..=shape.len() {
                for kind in [PAR, SER] {
                    for (name, op) in ops {
                        let run = |ctx: &Ctx| op(ctx, &values(ctx, shape), axis, 4, kind);
                        let want = run(&make());
                        let ctx = make();
                        ctx.pool.put(vec![f64::NAN; want.len()]);
                        let got = run(&ctx);
                        let what = format!("{name} {shape:?} axis {axis} {kind:?} {backend} p {p}");
                        assert_eq!(ctx.pool.hits(), 1, "{what}: the stale buffer was not taken");
                        same_bits(&what, &got.to_vec(), &want.to_vec()).unwrap();
                    }
                }
            }
        }
    }
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

    #[test]
    fn host_shifts_equal_the_cmf_rule(
        rank in 1usize..5,
        raw in prop::collection::vec(0usize..1_000_000, 4..5),
        seed in 0u64..u64::MAX,
        p in 1usize..9,
    ) {
        let shape = shape_of(rank, &raw);
        let ctx = ctx(p);
        let a = values(&ctx, &shape);
        for axis in 0..rank {
            let s = shift_for(seed, axis, shape[axis]);
            let mut offset = vec![0; rank];
            offset[axis] = s;
            let what = format!("shape {shape:?} axis {axis} shift {s}");
            same_bits(
                &format!("cshift, {what}"),
                &cshift(&ctx, &a, axis, s).to_vec(),
                &shifted_ref(&a, &offset, None),
            )?;
            same_bits(
                &format!("eoshift, {what}"),
                &eoshift(&ctx, &a, axis, s, 0.75).to_vec(),
                &shifted_ref(&a, &offset, Some(0.75)),
            )?;
            let fused = fuse::eval(&ctx, &Expr::leaf(&a).eoshift(axis, s, -2.5));
            same_bits(
                &format!("fused eoshift, {what}"),
                &fused.to_vec(),
                &shifted_ref(&a, &offset, Some(-2.5)),
            )?;
            // A shift of a compound expression: the fused evaluator
            // materializes the child, then shifts it.
            let e = Expr::leaf(&a).map(1, |x| x * 0.5 + 1.0).shift(axis, s);
            let child = a.map(&ctx, 1, |x| x * 0.5 + 1.0);
            same_bits(
                &format!("fused cshift of a compound, {what}"),
                &fuse::eval(&ctx, &e).to_vec(),
                &shifted_ref(&child, &offset, None),
            )?;
        }
    }

    #[test]
    fn host_stencils_equal_the_cmf_rule(
        rank in 1usize..5,
        raw in prop::collection::vec(0usize..1_000_000, 4..5),
        seed in 0u64..u64::MAX,
        npts in 1usize..7,
        cyclic in 0usize..2,
        p in 1usize..9,
    ) {
        let shape = shape_of(rank, &raw);
        let ctx = ctx(p);
        let a = values(&ctx, &shape);
        // Single-axis points, then diagonal ones, each offset within
        // three of the centre, so past the extent of a short axis.
        let points: Vec<StencilPoint<f64>> = (0..npts)
            .map(|k| {
                let along = |d: usize| k >= rank || d == k;
                let offset: Vec<isize> = (0..rank)
                    .map(|d| if along(d) { shift_for(seed, k * 8 + d, 1) } else { 0 })
                    .collect();
                StencilPoint::new(&offset, 1.0 / (k + 3) as f64 - 0.2)
            })
            .collect();
        let fill = (cyclic == 0).then_some(1.25);
        let boundary = fill.map_or(StencilBoundary::Cyclic, StencilBoundary::Fill);
        // out(i) = Σ_k w_k · shifted_k(i), summed from zero in point order.
        let mut want = vec![0.0; a.len()];
        for pt in &points {
            for (o, x) in want.iter_mut().zip(shifted_ref(&a, &pt.offset, fill)) {
                *o += pt.weight * x;
            }
        }
        same_bits(
            &format!("stencil, shape {shape:?} points {points:?} boundary {boundary:?}"),
            &stencil(&ctx, &a, &points, boundary).to_vec(),
            &want,
        )?;
    }
}
