//! Benchmarks of the §2 communication library codes and their underlying
//! primitives — the data-motion rows behind Tables 3 and 7.
//!
//! Regenerates the communication benchmark group (`gather`, `scatter`,
//! `reduction`, `transpose`) at class A and sweeps the primitive set
//! (cshift, spread, scan, sort, stencil) over the virtual machine sizes
//! the paper's CM-5 partitions came in (32..512 nodes).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use dpf_array::{DistArray, PAR};
use dpf_core::{Ctx, Machine};
use dpf_suite::{find, run_basic, ProblemClass};

/// The problem class the §2 codes run at.
const CLASS: ProblemClass = ProblemClass::A;

fn bench_section2_codes(c: &mut Criterion) {
    let mut g = c.benchmark_group("section2");
    g.sample_size(10);
    for name in ["gather", "scatter", "reduction", "transpose"] {
        let entry = find(name).unwrap();
        let machine = Machine::cm5(32);
        g.bench_function(name, |b| {
            b.iter(|| black_box(run_basic(&entry, &machine, CLASS).report.perf.flops))
        });
    }
    g.finish();
}

fn bench_primitives(c: &mut Criterion) {
    let mut g = c.benchmark_group("primitives");
    g.sample_size(10);
    let n = 1 << 18;
    for procs in [32usize, 128, 512] {
        let ctx = Ctx::new(Machine::cm5(procs));
        let a = DistArray::<f64>::from_fn(&ctx, &[n], &[PAR], |i| i[0] as f64);
        g.bench_with_input(BenchmarkId::new("cshift", procs), &procs, |b, _| {
            b.iter(|| black_box(dpf_comm::cshift(&ctx, &a, 0, 1)))
        });
        g.bench_with_input(BenchmarkId::new("sum_all", procs), &procs, |b, _| {
            b.iter(|| black_box(dpf_comm::sum_all(&ctx, &a)))
        });
        g.bench_with_input(BenchmarkId::new("scan_add", procs), &procs, |b, _| {
            b.iter(|| black_box(dpf_comm::scan_add(&ctx, &a, 0)))
        });
    }
    let ctx = Ctx::new(Machine::cm5(32));
    let keys = DistArray::<i32>::from_fn(&ctx, &[n], &[PAR], |i| {
        ((i[0] * 2654435761) % 1000003) as i32
    });
    g.bench_function("sort_keys", |b| {
        b.iter(|| black_box(dpf_comm::sort_keys(&ctx, &keys)))
    });
    let grid = DistArray::<f64>::from_fn(&ctx, &[512, 512], &[PAR, PAR], |i| (i[0] + i[1]) as f64);
    let pts = dpf_comm::star_stencil(2, -4.0, 1.0);
    g.bench_function("stencil_5pt_512", |b| {
        b.iter(|| {
            black_box(dpf_comm::stencil(
                &ctx,
                &grid,
                &pts,
                dpf_comm::StencilBoundary::Cyclic,
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_section2_codes, bench_primitives);
criterion_main!(benches);
