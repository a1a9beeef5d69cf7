//! Differential backend equivalence: every dpf-comm primitive must produce
//! element-identical results, and byte-identical §1.5 metric accounting,
//! under the Virtual (rayon, shared-memory) and Spmd (one worker thread per
//! virtual processor, explicit message passing) backends.
//!
//! The properties sweep random problem sizes, shapes and machine sizes —
//! including `nprocs = 1` (no distribution at all) and, in the targeted
//! tests below, `nprocs = 64` (far more virtual processors than physical
//! cores, so workers genuinely interleave).

use dpf::array::{AxisKind, DistArray, PAR, PAR_THRESHOLD, SER};
use dpf::comm::{
    broadcast, broadcast_scalar, cshift, dot, eoshift, gather, gather_combine, gather_nd, get,
    max_all, maxloc_abs, min_all, product_all, scan_add, scan_add_exclusive, scatter,
    scatter_combine, scatter_nd_combine, segmented_copy_scan, segmented_scan_add, send, sort_keys,
    spread, star_stencil, stencil, sum_all, sum_axis, sum_masked, transpose, transpose_axes,
    Combine, StencilBoundary, StencilPoint,
};
use dpf::core::{Backend, Ctx, FaultPlan, LinkFaultKind, Machine};
use proptest::prelude::*;

fn vctx(p: usize) -> Ctx {
    Ctx::new(Machine::cm5(p))
}

fn sctx(p: usize) -> Ctx {
    Ctx::with_backend(Machine::cm5(p), Backend::Spmd)
}

/// An SPMD context whose simulated links misbehave: every frame has a 15%
/// chance of being dropped, duplicated, reordered or corrupted (or only
/// `kind`, when given).
fn lossy_sctx(p: usize, seed: u64, kind: Option<LinkFaultKind>) -> Ctx {
    let mut plan = FaultPlan::default().with_link_faults(0.15);
    plan.seed = seed;
    if let Some(kind) = kind {
        plan = plan.only_link(kind);
    }
    Ctx::build(Machine::cm5(p), Some(plan), Backend::Spmd)
}

/// Run `op` under both backends on a fresh `p`-processor machine and demand
/// identical results, identical communication-metric maps and identical
/// FLOP counts. Returns the two contexts for extra, test-specific checks.
fn check<T: PartialEq + std::fmt::Debug>(p: usize, op: impl Fn(&Ctx) -> T) -> (Ctx, Ctx) {
    let v = vctx(p);
    let s = sctx(p);
    let rv = op(&v);
    let rs = op(&s);
    assert_eq!(rv, rs, "backend results differ (p={p})");
    assert_eq!(
        v.instr.comm_snapshot(),
        s.instr.comm_snapshot(),
        "comm metrics differ (p={p})"
    );
    assert_eq!(v.instr.flops(), s.instr.flops(), "FLOPs differ (p={p})");
    assert_eq!(
        v.link.messages(),
        0,
        "virtual backend sent channel messages"
    );
    (v, s)
}

/// Like [`check`], but the SPMD side runs over unreliable links. The
/// reliable-delivery protocol must hide every injected fault: results,
/// comm-metric maps and FLOP counts stay identical to the virtual backend.
fn check_lossy<T: PartialEq + std::fmt::Debug>(
    p: usize,
    seed: u64,
    kind: Option<LinkFaultKind>,
    op: impl Fn(&Ctx) -> T,
) -> Ctx {
    let v = vctx(p);
    let s = lossy_sctx(p, seed, kind);
    let rv = op(&v);
    let rs = op(&s);
    assert_eq!(
        rv, rs,
        "lossy spmd result diverges (p={p}, seed={seed}, kind={kind:?})"
    );
    assert_eq!(
        v.instr.comm_snapshot(),
        s.instr.comm_snapshot(),
        "comm metrics differ under link faults (p={p}, seed={seed}, kind={kind:?})"
    );
    assert_eq!(
        v.instr.flops(),
        s.instr.flops(),
        "FLOPs differ under link faults (p={p}, seed={seed}, kind={kind:?})"
    );
    s
}

fn f(i: usize) -> f64 {
    (i % 23) as f64 - 11.0 + (i % 7) as f64 * 0.125
}

/// Reduction inputs: a vector plus all-`PAR` 2-D and 3-D shapes, whose
/// row-major segments interleave owners. The fixed extents are ragged:
/// at p = 4, `[3, 5]` leaves the last worker of its 1×4 grid owning
/// nothing; at p = 8, `[2, 3]` leaves half the workers idle and
/// `[5, 9, 5]` leaves an empty block on its 4-way axis.
fn reduction_shapes(n: usize, r: usize, c: usize, z: usize) -> [Vec<usize>; 6] {
    [
        vec![n],
        vec![r, c],
        vec![z, r, c],
        vec![3, 5],
        vec![2, 3],
        vec![5, 9, 5],
    ]
}

/// A value seed for a multi-index: its digits in base 13.
fn flat13(i: &[usize]) -> usize {
    i.iter().fold(0, |acc, &x| acc * 13 + x)
}

/// An `f64` array's elements as bit patterns, for bit-for-bit comparison.
fn bits(a: &DistArray<f64>) -> Vec<u64> {
    a.to_vec().iter().map(|x| x.to_bits()).collect()
}

/// Every scatter-family variant from a source and index of `shape` and
/// `axes` into 1-D destinations of extent `n`, compared across backends.
/// The indices collide on purpose: both backends must agree on
/// last-writer-wins order and on combine accumulation order.
fn scatter_family_case(p: usize, n: usize, shape: &[usize], axes: &[AxisKind]) {
    let m: usize = shape.iter().product();
    check(p, |ctx| {
        let src = DistArray::<f64>::from_vec(ctx, shape, axes, (0..m).map(f).collect());
        let flats = (0..m).map(|k| ((k * 3 + 1) % n) as i32).collect();
        let idx = DistArray::<i32>::from_vec(ctx, shape, axes, flats);
        let mut plain = DistArray::<f64>::zeros(ctx, &[n], &[PAR]);
        scatter(ctx, &mut plain, &idx, &src);
        let mut sent = DistArray::<f64>::zeros(ctx, &[n], &[PAR]);
        send(ctx, &mut sent, &idx, &src);
        let mut added = DistArray::<f64>::zeros(ctx, &[n], &[PAR]);
        scatter_combine(ctx, &mut added, &idx, &src, Combine::Add);
        let mut maxed = DistArray::<f64>::full(ctx, &[n], &[PAR], f64::MIN);
        scatter_combine(ctx, &mut maxed, &idx, &src, Combine::Max);
        let mut minned = DistArray::<f64>::full(ctx, &[n], &[PAR], f64::MAX);
        scatter_combine(ctx, &mut minned, &idx, &src, Combine::Min);
        let mut deposited = DistArray::<f64>::zeros(ctx, &[n], &[PAR]);
        gather_combine(ctx, &mut deposited, &idx, &src);
        (
            plain.to_vec(),
            sent.to_vec(),
            added.to_vec(),
            maxed.to_vec(),
            minned.to_vec(),
            deposited.to_vec(),
        )
    });
}

/// An all-`PAR` array of `shape` holding `g(flat)`.
fn par_array(ctx: &Ctx, shape: &[usize], g: impl Fn(usize) -> f64) -> DistArray<f64> {
    let len = shape.iter().product();
    DistArray::from_vec(
        ctx,
        shape,
        &vec![PAR; shape.len()],
        (0..len).map(g).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn shifts_match(n in 1usize..48, shift in -60isize..60, p in 1usize..9) {
        check(p, |ctx| {
            let a = DistArray::<i32>::from_fn(ctx, &[n], &[PAR], |i| i[0] as i32);
            (
                cshift(ctx, &a, 0, shift).to_vec(),
                eoshift(ctx, &a, 0, shift, -1).to_vec(),
            )
        });
    }

    #[test]
    fn shifts_match_2d(r in 1usize..10, c in 1usize..10, shift in -12isize..12, p in 1usize..9) {
        check(p, |ctx| {
            let a = DistArray::<i32>::from_fn(ctx, &[r, c], &[PAR, PAR], |i| {
                (i[0] * 31 + i[1]) as i32
            });
            (
                cshift(ctx, &a, 0, shift).to_vec(),
                cshift(ctx, &a, 1, shift).to_vec(),
                eoshift(ctx, &a, 1, shift, 0).to_vec(),
            )
        });
    }

    #[test]
    fn shifts_match_nd(
        dims in prop::collection::vec(1usize..9, 4..5),
        shift in -20isize..20,
        p in 1usize..13,
    ) {
        // The link-field layouts of boson and qcd-kernel, a serial middle
        // axis, and an all-parallel rank 4. Extents below the grid leave
        // blocks empty; shifts reach past one block and past the extent.
        for axes in [
            &[SER, PAR, PAR][..],
            &[SER, PAR, PAR, PAR],
            &[PAR, SER, PAR],
            &[PAR, PAR, PAR, PAR],
        ] {
            let shape = &dims[..axes.len()];
            check(p, |ctx| {
                let a = DistArray::<i32>::from_fn(ctx, shape, axes, |i| {
                    i.iter().fold(0, |acc, &x| acc * 10 + x as i32)
                });
                (0..axes.len())
                    .map(|axis| {
                        (
                            cshift(ctx, &a, axis, shift).to_vec(),
                            eoshift(ctx, &a, axis, shift, -1).to_vec(),
                        )
                    })
                    .collect::<Vec<_>>()
            });
        }
    }

    #[test]
    fn spread_and_broadcast_match(n in 1usize..24, copies in 1usize..6, p in 1usize..9) {
        check(p, |ctx| {
            let a = DistArray::<f64>::from_fn(ctx, &[n], &[PAR], |i| f(i[0]));
            (
                spread(ctx, &a, 0, copies, PAR).to_vec(),
                broadcast(ctx, &a, 1, copies, PAR).to_vec(),
                broadcast_scalar(ctx, 2.5f64, &[n, copies], &[PAR, PAR]).to_vec(),
            )
        });
    }

    #[test]
    fn whole_array_reductions_match(
        n in 1usize..200,
        r in 1usize..12,
        c in 1usize..12,
        z in 1usize..5,
        p in 1usize..9,
    ) {
        for shape in reduction_shapes(n, r, c, z) {
            check(p, |ctx| {
                let a = par_array(ctx, &shape, f);
                let flags = (0..a.len()).map(|k| k % 3 != 0).collect();
                let mask = DistArray::<bool>::from_vec(ctx, &shape, a.layout().axes(), flags);
                (
                    sum_all(ctx, &a),
                    sum_masked(ctx, &a, &mask),
                    max_all(ctx, &a),
                    min_all(ctx, &a),
                    maxloc_abs(ctx, &a),
                )
            });
            // product over a scaled-down copy so magnitudes stay finite
            check(p, |ctx| {
                let a = par_array(ctx, &shape, |k| 1.0 + f(k) * 0.01);
                product_all(ctx, &a)
            });
        }
    }

    #[test]
    fn dot_matches(
        n in 1usize..300,
        r in 1usize..12,
        c in 1usize..12,
        z in 1usize..5,
        p in 1usize..9,
    ) {
        for shape in reduction_shapes(n, r, c, z) {
            check(p, |ctx| {
                let a = par_array(ctx, &shape, f);
                // Thirds are inexact, so the sum's rounding depends on
                // its element order.
                let b = par_array(ctx, &shape, |k| f(k + 5) / 3.0);
                dot(ctx, &a, &b)
            });
        }
    }

    #[test]
    fn sum_axis_and_scans_match(
        r in 1usize..12,
        c in 1usize..12,
        axis in 0usize..2,
        dims in prop::collection::vec(1usize..7, 3..4),
        p in 1usize..9,
    ) {
        // A 2-D all-parallel array along one axis, then rank 3 along every
        // axis on a serial-middle, a serial-leading and an all-parallel
        // layout. Results are compared bit for bit.
        let mut cases = vec![(vec![r, c], vec![PAR, PAR], axis)];
        for axes in [[PAR, SER, PAR], [SER, PAR, PAR], [PAR, PAR, PAR]] {
            cases.extend((0..3).map(|d| (dims.clone(), axes.to_vec(), d)));
        }
        for (shape, axes, axis) in cases {
            check(p, |ctx| {
                let a = DistArray::<f64>::from_fn(ctx, &shape, &axes, |i| f(flat13(i)));
                (
                    bits(&sum_axis(ctx, &a, axis)),
                    bits(&scan_add(ctx, &a, axis)),
                    bits(&scan_add_exclusive(ctx, &a, axis)),
                )
            });
        }
    }

    #[test]
    fn segmented_scans_match(n in 1usize..60, r in 1usize..10, c in 1usize..10, p in 1usize..9) {
        // A 1-D array, and a 2-D one along axis 1, where every row is a
        // lane. Results are compared bit for bit.
        for (shape, axis) in [(vec![n], 0), (vec![r, c], 1)] {
            check(p, |ctx| {
                let axes = vec![PAR; shape.len()];
                let a = DistArray::<f64>::from_fn(ctx, &shape, &axes, |i| f(flat13(i)));
                let seg = DistArray::<bool>::from_fn(ctx, &shape, &axes, |i| flat13(i).is_multiple_of(5));
                (
                    bits(&segmented_scan_add(ctx, &a, &seg, axis)),
                    bits(&segmented_copy_scan(ctx, &a, &seg, axis)),
                )
            });
        }
    }

    #[test]
    fn gather_family_matches(n in 1usize..60, r in 1usize..10, c in 1usize..10, p in 1usize..9) {
        check(p, |ctx| {
            let src = DistArray::<f64>::from_fn(ctx, &[n], &[PAR], |i| f(i[0]));
            let idx = DistArray::<i32>::from_fn(ctx, &[n], &[PAR], |i| ((i[0] * 7 + 3) % n) as i32);
            // A 2-D index: the output takes its shape, so the count walks
            // a 2-D array's owner segments.
            let idx2 = DistArray::<i32>::from_fn(ctx, &[r, c], &[PAR, PAR], |i| {
                ((i[0] * 7 + i[1] * 3 + 1) % n) as i32
            });
            let g2 = gather(ctx, &src, &idx2);
            (
                gather(ctx, &src, &idx).to_vec(),
                get(ctx, &src, &idx).to_vec(),
                (g2.shape().to_vec(), g2.to_vec()),
                get(ctx, &src, &idx2).to_vec(),
            )
        });
    }

    #[test]
    fn gather_nd_matches(r in 1usize..10, c in 1usize..10, p in 1usize..9) {
        check(p, |ctx| {
            let src = DistArray::<f64>::from_fn(ctx, &[r, c], &[PAR, PAR], |i| f(i[0] * 17 + i[1]));
            let m = r * c;
            let ci = DistArray::<i32>::from_fn(ctx, &[m], &[PAR], |i| ((i[0] * 3 + 1) % r) as i32);
            let cj = DistArray::<i32>::from_fn(ctx, &[m], &[PAR], |i| ((i[0] * 5 + 2) % c) as i32);
            gather_nd(ctx, &src, &[&ci, &cj]).to_vec()
        });
    }

    #[test]
    fn scatter_family_matches(n in 1usize..60, r in 1usize..10, c in 1usize..10, p in 1usize..9) {
        // A 1-D source and index, and a 2-D [PAR, SER] one, whose count
        // walks a 2-D array's owner segments, both into a 1-D destination.
        for (shape, axes) in [(vec![n], vec![PAR]), (vec![r, c], vec![PAR, SER])] {
            scatter_family_case(p, n, &shape, &axes);
        }
    }

    #[test]
    fn scatter_nd_combine_matches(r in 1usize..10, c in 1usize..10, p in 1usize..9) {
        check(p, |ctx| {
            let m = r * c;
            let src = DistArray::<f64>::from_fn(ctx, &[m], &[PAR], |i| f(i[0]));
            let ci = DistArray::<i32>::from_fn(ctx, &[m], &[PAR], |i| ((i[0] * 3 + 1) % r) as i32);
            let cj = DistArray::<i32>::from_fn(ctx, &[m], &[PAR], |i| ((i[0] * 5 + 2) % c) as i32);
            let mut dst = DistArray::<f64>::zeros(ctx, &[r, c], &[PAR, PAR]);
            scatter_nd_combine(ctx, &mut dst, &[&ci, &cj], &src, Combine::Add);
            dst.to_vec()
        });
    }

    #[test]
    fn transpose_matches(r in 1usize..14, c in 1usize..14, p in 1usize..9) {
        check(p, |ctx| {
            let a = DistArray::<f64>::from_fn(ctx, &[r, c], &[PAR, PAR], |i| f(i[0] * 19 + i[1]));
            transpose(ctx, &a).to_vec()
        });
    }

    #[test]
    fn transpose_axes_3d_matches(d in 1usize..7, p in 1usize..9) {
        check(p, |ctx| {
            let a = DistArray::<f64>::from_fn(ctx, &[d, d + 1, d + 2], &[PAR, PAR, SER], |i| {
                f(i[0] * 37 + i[1] * 5 + i[2])
            });
            transpose_axes(ctx, &a, 0, 1).to_vec()
        });
    }

    #[test]
    fn stencil_matches(n in 2usize..40, p in 1usize..9) {
        check(p, |ctx| {
            let a = DistArray::<f64>::from_fn(ctx, &[n], &[PAR], |i| f(i[0]));
            let pts = star_stencil(1, -2.0, 1.0);
            (
                stencil(ctx, &a, &pts, StencilBoundary::Cyclic).to_vec(),
                stencil(ctx, &a, &pts, StencilBoundary::Fill(0.25)).to_vec(),
            )
        });
    }

    #[test]
    fn stencil_2d_matches(r in 2usize..12, c in 2usize..12, p in 1usize..9) {
        check(p, |ctx| {
            let a = DistArray::<f64>::from_fn(ctx, &[r, c], &[PAR, PAR], |i| f(i[0] * 11 + i[1]));
            let pts = star_stencil(2, -4.0, 1.0);
            stencil(ctx, &a, &pts, StencilBoundary::Cyclic).to_vec()
        });
    }

    #[test]
    fn stencil_matches_nd(
        dims in prop::collection::vec(1usize..10, 3..4),
        offs in prop::collection::vec(-16isize..17, 6..19),
        p in 1usize..13,
    ) {
        // Random point sets behind a centre point, on diff-2D's layouts
        // (its transposed call runs on [SER, PAR]) and an all-parallel
        // rank 3. A component drawn past ±12 reads as 0, so single-axis
        // points and diagonal ones (chained shifts) both occur; the others
        // reach past a block and past the extent. Results are compared
        // bit for bit.
        for axes in [&[PAR, PAR][..], &[PAR, SER], &[SER, PAR], &[PAR, PAR, PAR]] {
            let rank = axes.len();
            let shape = &dims[..rank];
            let mut pts = vec![StencilPoint::new(&vec![0; rank], -1.5)];
            for (k, off) in offs.chunks_exact(rank).enumerate() {
                let off: Vec<isize> = off
                    .iter()
                    .map(|&o| if o.abs() > 12 { 0 } else { o })
                    .collect();
                pts.push(StencilPoint::new(&off, 0.25 + k as f64 * 0.5));
            }
            check(p, |ctx| {
                let a = DistArray::<f64>::from_fn(ctx, shape, axes, |i| {
                    f(i.iter().fold(0, |acc, &x| acc * 11 + x))
                });
                let bits = |b| -> Vec<u64> {
                    let out = stencil(ctx, &a, &pts, b);
                    out.to_vec().iter().map(|x| x.to_bits()).collect()
                };
                (bits(StencilBoundary::Cyclic), bits(StencilBoundary::Fill(0.25)))
            });
        }
    }

    #[test]
    fn primitives_survive_lossy_links(
        n in 4usize..24,
        p in 2usize..9,
        seed in 0u64..4096,
        kind_idx in 0usize..5,
    ) {
        // kind_idx 0..4 targets a single fault kind; 4 is the full mix.
        let kind = LinkFaultKind::ALL.get(kind_idx).copied();
        check_lossy(p, seed, kind, |ctx| {
            let a = DistArray::<f64>::from_fn(ctx, &[n], &[PAR], |i| f(i[0]));
            let idx = DistArray::<i32>::from_fn(ctx, &[n], &[PAR], |i| ((i[0] * 7 + 3) % n) as i32);
            let m = DistArray::<f64>::from_fn(ctx, &[n, n], &[PAR, PAR], |i| f(i[0] * 29 + i[1]));
            let pts = star_stencil(1, -2.0, 1.0);
            (
                cshift(ctx, &a, 0, 3).to_vec(),
                sum_all(ctx, &a),
                dot(ctx, &a, &a),
                scan_add(ctx, &a, 0).to_vec(),
                gather(ctx, &a, &idx).to_vec(),
                transpose(ctx, &m).to_vec(),
                stencil(ctx, &a, &pts, StencilBoundary::Cyclic).to_vec(),
            )
        });
    }

    #[test]
    fn sort_matches(n in 1usize..80, p in 1usize..9) {
        // Sort stays host-side under both backends (documented exception);
        // results and metrics must still agree.
        check(p, |ctx| {
            let a = DistArray::<i32>::from_fn(ctx, &[n], &[PAR], |i| ((i[0] * 37 + 11) % 64) as i32);
            let (sorted, perm) = sort_keys(ctx, &a);
            (sorted.to_vec(), perm.to_vec())
        });
    }
}

/// The dot product above the rayon parallel threshold exercises the
/// chunk-partial protocol that replays the virtual backend's reduce tree;
/// the result must stay bit-identical, not merely approximately equal.
/// The 26³ cube's row-major segments interleave owners, so its chunk
/// partials are folded across them.
#[test]
fn dot_above_parallel_threshold_is_bit_identical() {
    let cube = [26usize, 26, 26];
    assert!(cube.iter().product::<usize>() > PAR_THRESHOLD);
    for shape in [&[PAR_THRESHOLD + 1000][..], &cube] {
        for p in [2usize, 7, 8] {
            let (_, s) = check(p, |ctx| {
                let a = par_array(ctx, shape, f);
                let b = par_array(ctx, shape, |k| f(k + 3) / 3.0);
                dot(ctx, &a, &b).to_bits()
            });
            assert!(
                s.link.payload_bytes() > 0,
                "p={p}, shape={shape:?}: no bytes crossed a channel"
            );
        }
    }
}

/// qcd-kernel's rank-7 link field, split along its last axis at p = 2
/// and over several parallel axes beyond: every axis, both shift kinds,
/// shifts within one block and past it.
#[test]
fn rank7_link_field_shifts_match() {
    let shape = [4usize, 3, 3, 6, 6, 6, 6];
    let axes = [SER, SER, SER, PAR, PAR, PAR, PAR];
    for p in [2usize, 3, 6, 12, 64] {
        check(p, |ctx| {
            let a = DistArray::<f64>::from_fn(ctx, &shape, &axes, |i| {
                f(i.iter().fold(0, |acc, &x| acc * 7 + x))
            });
            let mut out = Vec::new();
            for axis in 0..shape.len() {
                for shift in [1isize, -1, 4] {
                    out.push(cshift(ctx, &a, axis, shift).to_vec());
                    out.push(eoshift(ctx, &a, axis, shift, 0.5).to_vec());
                }
            }
            out
        });
    }
}

/// More virtual processors than this machine has cores: the SPMD executor
/// must still terminate (no deadlock) and agree with the virtual backend.
#[test]
fn oversubscribed_64_workers_agree() {
    let p = 64;
    check(p, |ctx| {
        let a = DistArray::<f64>::from_fn(ctx, &[257], &[PAR], |i| f(i[0]));
        let idx = DistArray::<i32>::from_fn(ctx, &[257], &[PAR], |i| ((i[0] * 7 + 3) % 257) as i32);
        let m = DistArray::<f64>::from_fn(ctx, &[24, 24], &[PAR, PAR], |i| f(i[0] * 29 + i[1]));
        let pts = star_stencil(2, -4.0, 1.0);
        (
            cshift(ctx, &a, 0, 13).to_vec(),
            sum_all(ctx, &a),
            scan_add(ctx, &a, 0).to_vec(),
            gather(ctx, &a, &idx).to_vec(),
            transpose(ctx, &m).to_vec(),
            stencil(ctx, &m, &pts, StencilBoundary::Cyclic).to_vec(),
        )
    });
}

/// A single virtual processor: nothing is distributed, so the SPMD backend
/// must not move any bytes over channels at all.
#[test]
fn single_processor_moves_no_channel_bytes() {
    let (_, s) = check(1, |ctx| {
        let a = DistArray::<f64>::from_fn(ctx, &[100], &[PAR], |i| f(i[0]));
        let idx = DistArray::<i32>::from_fn(ctx, &[100], &[PAR], |i| ((i[0] * 7) % 100) as i32);
        (
            cshift(ctx, &a, 0, 3).to_vec(),
            sum_all(ctx, &a),
            scan_add(ctx, &a, 0).to_vec(),
            gather(ctx, &a, &idx).to_vec(),
        )
    });
    assert_eq!(s.link.payload_bytes(), 0, "p=1 sent payload over channels");
}

/// Benchmark-level metric parity: a sample of benchmarks from each paper
/// group, run through the harness under both backends, must report the
/// identical `(pattern, src_rank, dst_rank) → {calls, elements, bytes}`
/// map, the identical FLOP count and the identical memory accounting.
#[test]
fn benchmark_comm_metrics_are_backend_invariant() {
    use dpf::suite::{find, run_on, Version};
    use dpf::ProblemClass;
    // All four §2 communication functions, plus samples of the linear
    // algebra and application groups covering every comm pattern family.
    let sample = [
        "gather",
        "reduction",
        "scatter",
        "transpose",
        "matrix-vector",
        "conj-grad",
        "fft",
        "pcr",
        "step4",
        "qcd-kernel",
        "boson",
        "mdcell",
        "rp",
        "ellip-2D",
        "diff-3D",
        "pic-simple",
        "n-body",
        "wave-1D",
    ];
    let machine = Machine::cm5(8);
    for name in sample {
        let entry = find(name).unwrap();
        let rv = run_on(
            &entry,
            Version::Basic,
            &machine,
            ProblemClass::S,
            Backend::Virtual,
        );
        let rs = run_on(
            &entry,
            Version::Basic,
            &machine,
            ProblemClass::S,
            Backend::Spmd,
        );
        assert!(rv.report.verify.is_pass(), "{name} failed under virtual");
        assert!(rs.report.verify.is_pass(), "{name} failed under spmd");
        assert_eq!(rv.report.comm, rs.report.comm, "{name}: comm maps differ");
        assert_eq!(
            rv.report.perf.flops, rs.report.perf.flops,
            "{name}: FLOPs differ"
        );
        assert_eq!(
            rv.report.memory_bytes, rs.report.memory_bytes,
            "{name}: memory accounting differs"
        );
    }
}

/// The §1.5 link accounting stays *logical* under faults: a lossy run
/// reports exactly the messages and payload bytes a clean run reports —
/// retransmissions, duplicates and acks live in their own counters — while
/// the fault counters prove the injector really fired.
#[test]
fn lossy_links_keep_logical_meters_invariant() {
    let workload = |ctx: &Ctx| {
        let a = DistArray::<f64>::from_fn(ctx, &[2048], &[PAR], |i| f(i[0]));
        let m = DistArray::<f64>::from_fn(ctx, &[32, 32], &[PAR, PAR], |i| f(i[0] * 31 + i[1]));
        (
            cshift(ctx, &a, 0, 5).to_vec(),
            sum_all(ctx, &a),
            transpose(ctx, &m).to_vec(),
            scan_add(ctx, &a, 0).to_vec(),
        )
    };
    let clean = sctx(8);
    let rv = workload(&clean);
    let lossy = check_lossy(8, 7, None, workload);
    assert_eq!(rv, workload(&vctx(8)), "clean spmd diverged from virtual");
    assert_eq!(
        clean.link.messages(),
        lossy.link.messages(),
        "link faults leaked into the logical message count"
    );
    assert_eq!(
        clean.link.payload_bytes(),
        lossy.link.payload_bytes(),
        "link faults leaked into the logical payload bytes"
    );
    assert!(lossy.link.link_faults() > 0, "no link faults fired");
    assert!(lossy.link.retransmits() > 0, "no retransmissions happened");
    assert!(lossy.link.acks() > 0, "no in-order acceptance counted");
    assert_eq!(clean.link.retransmits(), 0);
    assert_eq!(clean.link.link_faults(), 0);
}

/// Every transport counter — including the retransmitted-byte and
/// per-kind fault tallies and the in-order acceptances counted as acks —
/// is byte-reproducible from the fault seed.
#[test]
fn lossy_transport_accounting_is_reproducible() {
    let run = || {
        let s = lossy_sctx(8, 99, None);
        let a = DistArray::<f64>::from_fn(&s, &[1024], &[PAR], |i| f(i[0]));
        let m = DistArray::<f64>::from_fn(&s, &[24, 24], &[PAR, PAR], |i| f(i[0] * 17 + i[1]));
        let r = (
            cshift(&s, &a, 0, 9).to_vec(),
            transpose(&s, &m).to_vec(),
            sum_all(&s, &a),
        );
        assert!(s.link.acks() > 0, "no in-order acceptance counted");
        let meters = vec![
            s.link.messages(),
            s.link.payload_bytes(),
            s.link.retransmits(),
            s.link.retransmitted_bytes(),
            s.link.link_faults(),
            s.link.faults_dropped(),
            s.link.faults_duplicated(),
            s.link.faults_reordered(),
            s.link.faults_corrupted(),
            s.link.duplicates_discarded(),
            s.link.crc_rejects(),
            s.link.acks(),
        ];
        (r, meters)
    };
    let (r1, m1) = run();
    let (r2, m2) = run();
    assert_eq!(r1, r2, "lossy results are not reproducible");
    assert_eq!(m1, m2, "lossy transport accounting is not reproducible");
}

/// Deterministic fault injection is backend-independent: the same plan on
/// the same seed must produce a byte-identical suite outcome table twice
/// in a row under the SPMD backend.
#[test]
fn spmd_fault_injection_is_deterministic() {
    use dpf::suite::{run_suite, SuiteConfig};
    use dpf::FaultPlan;
    let cfg = SuiteConfig {
        machine: Machine::cm5(8),
        faults: FaultPlan::new(0.01, 42),
        backend: Backend::Spmd,
        ..SuiteConfig::default()
    };
    let first = run_suite(&cfg).summary();
    let second = run_suite(&cfg).summary();
    assert_eq!(first, second, "fault outcomes are not reproducible");
}

/// On a genuinely distributed layout the SPMD backend's link meter must
/// show traffic: the bytes the Instr reports are bytes that actually
/// crossed a channel, not a model.
#[test]
fn spmd_backend_moves_real_bytes() {
    let s = sctx(8);
    let a = DistArray::<f64>::from_fn(&s, &[4096], &[PAR], |i| f(i[0]));
    let shifted = cshift(&s, &a, 0, 1);
    assert_eq!(shifted.to_vec()[0], f(1));
    assert!(s.link.messages() > 0, "no messages crossed the channels");
    assert!(
        s.link.payload_bytes() > 0,
        "no payload crossed the channels"
    );
}

/// The pull and route protocols send a frame only when it carries
/// something, and a worker's own block never crosses a channel: at
/// p = 8 each operation below runs the given number of collectives with
/// exactly these message and payload counts, where a frame to every
/// ordered pair of workers would take 56 per round for the same payload.
/// A shift sends one value frame per run of a neighbour's output that
/// reads another block, with no request frames; a stencil is one such
/// shift per non-zero offset component. A reduction sends one frame
/// from each other owner to the folder, carrying one element-sized value
/// per element.
#[test]
fn sparse_exchange_sends_only_non_empty_frames() {
    fn frames<T: PartialEq + std::fmt::Debug>(
        collectives: u64,
        op: impl Fn(&Ctx) -> T,
    ) -> (u64, u64) {
        let (_, s) = check(8, op);
        assert_eq!(s.link.collectives(), collectives, "collective count");
        (s.link.messages(), s.link.payload_bytes())
    }
    let n = 4096;
    let cshifted = frames(1, |ctx| {
        let a = DistArray::<f64>::from_fn(ctx, &[n], &[PAR], |i| f(i[0]));
        cshift(ctx, &a, 0, 1).to_vec()
    });
    assert_eq!(cshifted, (8, 64), "cshift by +1");
    let far = frames(1, |ctx| {
        let a = DistArray::<f64>::from_fn(ctx, &[n], &[PAR], |i| f(i[0]));
        cshift(ctx, &a, 0, 700).to_vec()
    });
    assert_eq!(far, (16, 32768), "cshift by 700: two source blocks each");
    let eoshifted = frames(1, |ctx| {
        let m = DistArray::<f64>::from_fn(ctx, &[32, 32], &[PAR, PAR], |i| f(i[0] * 32 + i[1]));
        assert_eq!((m.layout().procs_on(0), m.layout().procs_on(1)), (2, 4));
        eoshift(ctx, &m, 1, -3, 0.0).to_vec()
    });
    assert_eq!(eoshifted, (6, 2304), "eoshift by -3 along axis 1 of 32x32");
    let scattered = frames(1, |ctx| {
        let src = DistArray::<f64>::from_fn(ctx, &[n], &[PAR], |i| f(i[0]));
        let idx = DistArray::<i32>::from_fn(ctx, &[n], &[PAR], |i| i[0] as i32);
        let mut dst = DistArray::<f64>::zeros(ctx, &[n], &[PAR]);
        scatter(ctx, &mut dst, &idx, &src);
        dst.to_vec()
    });
    assert_eq!(scattered, (0, 0), "scatter with the identity index");
    let transposed = frames(1, |ctx| {
        let m = DistArray::<f64>::from_fn(ctx, &[32, 32], &[PAR, PAR], |i| f(i[0] * 32 + i[1]));
        transpose(ctx, &m).to_vec()
    });
    assert_eq!(transposed, (24, 6144), "transpose of 32x32");
    let stenciled = frames(4, |ctx| {
        let m = DistArray::<f64>::from_fn(ctx, &[32, 32], &[PAR, PAR], |i| f(i[0] * 32 + i[1]));
        assert_eq!((m.layout().procs_on(0), m.layout().procs_on(1)), (2, 4));
        stencil(
            ctx,
            &m,
            &star_stencil(2, -4.0, 1.0),
            StencilBoundary::Cyclic,
        )
        .to_vec()
    });
    assert_eq!(
        stenciled,
        (32, 3072),
        "5-point cyclic stencil on the 2x4 grid: four shifts"
    );
    let gathered = frames(1, |ctx| {
        let src = DistArray::<f64>::from_fn(ctx, &[n], &[PAR], |i| f(i[0]));
        let idx = DistArray::<i32>::from_fn(ctx, &[n], &[PAR], |i| ((7 * i[0] + 3) % n) as i32);
        gather(ctx, &src, &idx).to_vec()
    });
    assert_eq!(gathered, (96, 28096), "gather with index (7i+3) mod 4096");
    let summed = frames(1, |ctx| {
        let m = par_array(ctx, &[32, 32], f);
        assert_eq!((m.layout().procs_on(0), m.layout().procs_on(1)), (2, 4));
        sum_all(ctx, &m)
    });
    assert_eq!(summed, (7, 7168), "sum_all of 32x32 on the 2x4 grid");
    let dotted = frames(1, |ctx| {
        dot(ctx, &par_array(ctx, &[n], f), &par_array(ctx, &[n], f))
    });
    assert_eq!(dotted, (7, 28672), "dot of two f64[4096]");
}
