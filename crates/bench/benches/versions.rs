//! The version axis of Table 1: the same kernel in its "typical user
//! code" spelling versus the tuned alternative — the comparison the
//! suite was built to let compiler writers make.
//!
//! * `matrix-vector`: basic (`SUM(SPREAD(x)·A)`) vs library (blocked).
//! * `n-body`: all eight Table 6 variants.
//! * `pic`: colliding deposit (pic-simple style) vs the sorted
//!   scan-combined deposit (pic-gather-scatter).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use dpf_apps::n_body::{self, Variant};
use dpf_core::{Ctx, Machine};
use dpf_suite::{find, run, ProblemClass, Version};

/// The problem class every comparison runs at.
const CLASS: ProblemClass = ProblemClass::A;

fn bench_matvec_versions(c: &mut Criterion) {
    let mut g = c.benchmark_group("matvec_versions");
    g.sample_size(10);
    let entry = find("matrix-vector").unwrap();
    let machine = Machine::cm5(32);
    for version in [Version::Basic, Version::Library] {
        g.bench_function(version.name(), |b| {
            b.iter(|| black_box(run(&entry, version, &machine, CLASS).report.perf.flops))
        });
    }
    g.finish();
}

fn bench_version_axis(c: &mut Criterion) {
    // Every benchmark with a tuned alternate: basic vs that alternate.
    let mut g = c.benchmark_group("version_axis");
    g.sample_size(10);
    let machine = Machine::cm5(32);
    for (name, alt) in [
        ("conj-grad", Version::Optimized),
        ("diff-3D", Version::Optimized),
        ("step4", Version::CDpeac),
        ("lu", Version::Cmssl),
        ("fermion", Version::Optimized),
        ("wave-1D", Version::Optimized),
    ] {
        let entry = find(name).unwrap();
        g.bench_function(format!("{name}_basic"), |b| {
            b.iter(|| {
                black_box(
                    run(&entry, Version::Basic, &machine, CLASS)
                        .report
                        .perf
                        .flops,
                )
            })
        });
        g.bench_function(format!("{name}_{}", alt.name().replace('/', "_")), |b| {
            b.iter(|| black_box(run(&entry, alt, &machine, CLASS).report.perf.flops))
        });
    }
    g.finish();
}

fn bench_nbody_variants(c: &mut Criterion) {
    let mut g = c.benchmark_group("nbody_variants");
    g.sample_size(10);
    let machine = Machine::cm5(32);
    let n: usize = 192;
    for variant in Variant::ALL {
        g.bench_function(variant.name().replace([' ', '/'], "_"), |b| {
            b.iter(|| {
                let ctx = Ctx::new(machine.clone());
                let pad = if variant.name().contains("fill") {
                    n.next_power_of_two()
                } else {
                    n
                };
                let parts = n_body::workload(&ctx, n, pad);
                black_box(n_body::forces(&ctx, &parts, variant, 1e-2))
            })
        });
    }
    g.finish();
}

fn bench_pic_deposit_strategies(c: &mut Criterion) {
    let mut g = c.benchmark_group("pic_deposit");
    g.sample_size(10);
    let machine = Machine::cm5(32);
    let np = 1 << 14;
    // Colliding (pic-simple style) deposit.
    g.bench_function("colliding", |b| {
        b.iter(|| {
            let ctx = Ctx::new(machine.clone());
            let p = dpf_apps::pic_gather_scatter::Params {
                np,
                ng: 8,
                steps: 1,
            };
            let (cells, charge) = dpf_apps::pic_gather_scatter::workload(&ctx, &p);
            let mut grid =
                dpf_array::DistArray::<f64>::zeros(&ctx, &[8 * 8 * 8], &[dpf_array::PAR]);
            dpf_comm::scatter_combine(&ctx, &mut grid, &cells, &charge, dpf_comm::Combine::Add);
            black_box(grid)
        })
    });
    // Sorted, scan-combined, collision-free deposit.
    g.bench_function("sorted_scan", |b| {
        b.iter(|| {
            let ctx = Ctx::new(machine.clone());
            let p = dpf_apps::pic_gather_scatter::Params {
                np,
                ng: 8,
                steps: 1,
            };
            let (cells, charge) = dpf_apps::pic_gather_scatter::workload(&ctx, &p);
            black_box(dpf_apps::pic_gather_scatter::deposit_sorted(
                &ctx, &p, &cells, &charge,
            ))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_matvec_versions,
    bench_version_axis,
    bench_nbody_variants,
    bench_pic_deposit_strategies
);
criterion_main!(benches);
