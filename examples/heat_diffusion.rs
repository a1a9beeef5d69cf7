//! Heat diffusion across methods — the fluid-dynamics workload family the
//! paper's introduction motivates.
//!
//! Solves the same physics three ways, exactly as the suite's diff-1D
//! (implicit tridiagonal), diff-2D (ADI with an AAPC transpose) and
//! diff-3D (explicit stencil) codes do, and contrasts their measured
//! computation-to-communication ratios — the quantity Table 6 tabulates.
//!
//! Run with: `cargo run --release --example heat_diffusion`

use dpf::apps::{diff_1d, diff_2d, diff_3d};
use dpf::core::{Ctx, DpfError, Machine};

fn main() -> Result<(), DpfError> {
    let machine = Machine::cm5(32);
    println!(
        "heat diffusion three ways on a {}-processor virtual machine\n",
        machine.nprocs
    );
    println!(
        "{:<28} {:>12} {:>12} {:>12} {:>10}",
        "method", "FLOPs", "comm calls", "off-proc B", "verify"
    );

    // 1-D: Crank–Nicolson + parallel cyclic reduction.
    let ctx = Ctx::new(machine.clone());
    let p1 = diff_1d::Params {
        nx: 4096,
        steps: 32,
        lambda: 0.4,
    };
    let (_, v1, _) = diff_1d::run(&ctx, &p1)?;
    row("diff-1D (implicit, PCR)", &ctx, &v1);

    // 2-D: alternating-direction implicit, transposing between sweeps.
    let ctx = Ctx::new(machine.clone());
    let p2 = diff_2d::Params {
        nx: 128,
        steps: 16,
        lambda: 0.3,
    };
    let (_, v2, _) = diff_2d::run(&ctx, &p2)?;
    row("diff-2D (ADI + AAPC)", &ctx, &v2);

    // 3-D: explicit 7-point stencil.
    let ctx = Ctx::new(machine.clone());
    let p3 = diff_3d::Params {
        n: 48,
        steps: 32,
        lambda: 0.15,
    };
    let (_, v3, _) = diff_3d::run(&ctx, &p3)?;
    row("diff-3D (explicit stencil)", &ctx, &v3);

    println!(
        "\nThe implicit 1-D solver pays log(n) communication rounds per step;\n\
         ADI trades them for one transpose; the explicit 3-D method has the\n\
         highest FLOP count but only nearest-neighbour halo traffic — the\n\
         trade-off the DPF suite was designed to expose to compilers."
    );
    Ok(())
}

fn row(label: &str, ctx: &Ctx, verify: &dpf::Verify) {
    let comm = ctx.instr.comm_snapshot();
    let calls: u64 = comm.values().map(|s| s.calls).sum();
    let bytes: u64 = comm.values().map(|s| s.offproc_bytes).sum();
    println!(
        "{:<28} {:>12} {:>12} {:>12} {:>10}",
        label,
        ctx.instr.flops(),
        calls,
        bytes,
        if verify.is_pass() { "PASS" } else { "FAIL" }
    );
}
