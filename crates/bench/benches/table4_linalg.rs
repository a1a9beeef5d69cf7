//! Table 4 — the linear-algebra library codes, one Criterion benchmark
//! per row (matrix-vector, lu, qr, gauss-jordan, pcr ×3 layouts,
//! conj-grad, jacobi, fft 1-D/2-D/3-D).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use dpf_core::{Ctx, Machine};
use dpf_suite::{find, run_basic, runners, ProblemClass};

/// The problem class every row runs at.
const CLASS: ProblemClass = ProblemClass::A;

fn bench_table4_rows(c: &mut Criterion) {
    let mut g = c.benchmark_group("table4");
    g.sample_size(10);
    let machine = Machine::cm5(32);
    for name in [
        "matrix-vector",
        "lu",
        "qr",
        "gauss-jordan",
        "pcr",
        "conj-grad",
        "jacobi",
        "fft",
    ] {
        let entry = find(name).unwrap();
        g.bench_function(name, |b| {
            b.iter(|| black_box(run_basic(&entry, &machine, CLASS).report.perf.flops))
        });
    }
    g.finish();
}

fn bench_pcr_layout_variants(c: &mut Criterion) {
    // Table 2's three pcr layouts: single system, 2-D batch, 3-D batch.
    let mut g = c.benchmark_group("pcr_variants");
    g.sample_size(10);
    let machine = Machine::cm5(32);
    #[allow(clippy::type_complexity)]
    let variants: [(&str, fn(&Ctx, ProblemClass) -> dpf_suite::RunOutput); 3] = [
        ("1d_single", runners::pcr_1d),
        ("2d_batch", runners::pcr_2d),
        ("3d_batch", runners::pcr_3d),
    ];
    for (label, f) in variants {
        g.bench_function(label, |b| {
            b.iter(|| {
                let ctx = Ctx::new(machine.clone());
                black_box(f(&ctx, CLASS).points)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_table4_rows, bench_pcr_layout_variants);
criterion_main!(benches);
