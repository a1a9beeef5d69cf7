//! Runner functions for every benchmark (the glue between the registry
//! and the implementation crates). Each derives its problem parameters
//! from a [`ProblemClass`] through the class's scaling rules.

use dpf_array::PAR;
use dpf_core::{Ctx, DpfError, ProblemClass, RecoveryStats, Verify};

use crate::benchmark::RunOutput;

/// The output of a checkpoint-aware runner, whose kernel returns the
/// verification, iteration count and recovery statistics. With
/// checkpointing on (`--checkpoint-every K`, K > 0) the problem string
/// gains the interval and restore count. An exhausted restore budget (or
/// an unrecoverable error) reports a failing verification instead of
/// unwinding, so the suite sweep keeps going.
fn checkpointed(
    ctx: &Ctx,
    problem: String,
    points: u64,
    run: Result<(Verify, u64, RecoveryStats), DpfError>,
) -> RunOutput {
    let every = ctx.faults.checkpoint_every();
    match run {
        Ok((verify, iterations, stats)) => RunOutput {
            problem: if every > 0 {
                format!("{problem} (ck={every}, restores={})", stats.restores)
            } else {
                problem
            },
            verify,
            points,
            iterations,
        },
        Err(e) => RunOutput {
            problem: format!("{problem}: {e}"),
            verify: Verify::check("checkpoint recovery", f64::INFINITY, 0.0),
            points,
            iterations: 0,
        },
    }
}

// ---------------------------------------------------------------- linalg

/// `matrix-vector`, basic version (`SUM(SPREAD(x) * A, dim)`).
pub fn matvec_basic(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    matvec_impl(ctx, c, false)
}

/// `matrix-vector`, library version (blocked dot-product kernel).
pub fn matvec_library(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    matvec_impl(ctx, c, true)
}

fn matvec_impl(ctx: &Ctx, c: ProblemClass, library: bool) -> RunOutput {
    use dpf_linalg::matvec;
    let (ni, n, m) = (c.linear(2), c.pow2(16), c.pow2(16));
    let (a, x) = matvec::workload(ctx, matvec::MvLayout::Instances, ni, n, m);
    let y = if library {
        matvec::matvec_library(ctx, &a, &x)
    } else {
        matvec::matvec_basic(ctx, &a, &x)
    };
    RunOutput {
        problem: format!("i={ni}, n={n}, m={m}, d"),
        verify: matvec::verify(&a, &x, &y, 1e-10),
        points: (ni * n * m) as u64,
        iterations: 1,
    }
}

/// `lu` problem shape `(n, r)`, shared by the basic and blocked versions.
fn lu_shape(c: ProblemClass) -> (usize, usize) {
    (c.linear(16), c.linear(2))
}

/// `lu` — factor + solve, timed as separate phases.
pub fn lu(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    use dpf_linalg::lu;
    let (n, r) = lu_shape(c);
    let (a, b) = lu::workload(ctx, n, r);
    let f = ctx.phase("lu:factor", || lu::lu_factor(ctx, &a));
    let x = ctx.phase("lu:solve", || lu::lu_solve(ctx, &f, &b));
    RunOutput {
        problem: format!("n={n}, r={r}, d"),
        verify: lu::verify(&a, &b, &x, 1e-7 * n as f64),
        points: (n * n) as u64,
        iterations: n as u64,
    }
}

/// `lu`, CMSSL (blocked) version.
pub fn lu_blocked(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    use dpf_linalg::lu;
    let (n, r) = lu_shape(c);
    let nb = c.linear(4);
    let (a, b) = lu::workload(ctx, n, r);
    let f = ctx.phase("lu:factor", || lu::lu_factor_blocked(ctx, &a, nb));
    let x = ctx.phase("lu:solve", || lu::lu_solve(ctx, &f, &b));
    RunOutput {
        problem: format!("n={n}, r={r}, nb={nb}, d (blocked)"),
        verify: lu::verify(&a, &b, &x, 1e-7 * n as f64),
        points: (n * n) as u64,
        iterations: n as u64,
    }
}

/// `qr` — factor + solve phases.
pub fn qr(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    use dpf_linalg::qr;
    let (m, n, r) = (c.linear(24), c.linear(12), c.linear(2));
    let (a, b, x_true) = qr::workload(ctx, m, n, r);
    let f = ctx.phase("qr:factor", || qr::qr_factor(ctx, &a));
    let x = ctx.phase("qr:solve", || qr::qr_solve(ctx, &f, &b));
    RunOutput {
        problem: format!("m={m}, n={n}, r={r}, d"),
        verify: qr::verify(&x, &x_true, 1e-6),
        points: (m * n) as u64,
        iterations: n as u64,
    }
}

/// `gauss-jordan`.
pub fn gauss_jordan(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    use dpf_linalg::gauss_jordan as gj;
    let n = c.linear(16);
    let (a, b) = gj::workload(ctx, n);
    let x = gj::gauss_jordan_solve(ctx, &a, &b);
    RunOutput {
        problem: format!("n={n}, d"),
        verify: gj::verify(&a, &b, &x, 1e-8 * n as f64),
        points: (n * n) as u64,
        iterations: n as u64,
    }
}

/// `pcr`, variant (1): a single 1-D system.
pub fn pcr_1d(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    pcr_impl(ctx, vec![c.pow2(64)])
}

/// `pcr`, variant (2): batched 2-D systems.
pub fn pcr_2d(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    pcr_impl(ctx, vec![c.linear(4), c.pow2(32)])
}

/// `pcr`, variant (3): batched 3-D systems.
pub fn pcr_3d(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    pcr_impl(ctx, vec![c.linear(2), c.linear(4), c.pow2(16)])
}

/// Shared body of the three `pcr` variants. Their shapes keep only the
/// solved (last) dimension a power of two; batch dimensions grow
/// linearly to bound memory.
fn pcr_impl(ctx: &Ctx, shape: Vec<usize>) -> RunOutput {
    use dpf_linalg::pcr;
    let axes = vec![PAR; shape.len()];
    let sys = pcr::workload(ctx, &shape, &axes);
    let x = pcr::pcr_solve(ctx, &sys);
    let n = shape[shape.len() - 1];
    RunOutput {
        problem: format!("shape={shape:?}, d"),
        verify: pcr::verify(&sys, &x, 1e-8),
        points: sys.diag.len() as u64,
        iterations: (usize::BITS - (n - 1).leading_zeros()) as u64,
    }
}

/// `conj-grad` system size, shared by the basic and fused versions.
fn conj_grad_size(c: ProblemClass) -> usize {
    c.pow2(128)
}

/// `conj-grad`.
pub fn conj_grad(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    use dpf_linalg::conj_grad as cg;
    let n = conj_grad_size(c);
    let sys = cg::workload(ctx, n);
    let out = cg::cg_solve(ctx, &sys, 1e-11, 10 * n).map(|(out, stats)| {
        let verify = cg::verify(&sys, &out.x, 1e-8);
        (verify, out.iterations as u64, stats)
    });
    checkpointed(ctx, format!("n={n}, d"), n as u64, out)
}

/// `conj-grad`, optimized (fused-kernel) version.
pub fn conj_grad_optimized(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    use dpf_linalg::conj_grad as cg;
    let n = conj_grad_size(c);
    let sys = cg::workload(ctx, n);
    let out = cg::cg_solve_optimized(ctx, &sys, 1e-11, 10 * n);
    RunOutput {
        problem: format!("n={n}, d (fused)"),
        verify: cg::verify(&sys, &out.x, 1e-8),
        points: n as u64,
        iterations: out.iterations as u64,
    }
}

/// `jacobi`.
pub fn jacobi(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    use dpf_linalg::jacobi as jc;
    let n = c.linear(8);
    let a = jc::workload(ctx, n);
    let out = jc::jacobi_eigen(ctx, &a, 1e-11, 40).map(|(out, stats)| {
        let verify = jc::verify(&a, &out, 1e-7);
        (verify, out.iterations as u64, stats)
    });
    checkpointed(ctx, format!("n={n}, d"), (n * n) as u64, out)
}

/// `fft` — 1-D, 2-D and 3-D round trips (Table 4's three rows).
pub fn fft(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    use dpf_linalg::fft_bench as fb;
    // Scale the leading axis only: every dimension stays a power of two
    // and the 3-D round trip grows geometrically, not cubed.
    let shapes: [Vec<usize>; 3] = [
        vec![c.pow2(256)],
        vec![c.pow2(16), 16],
        vec![c.pow2(8), 8, 8],
    ];
    let mut worst = Verify::NotApplicable;
    let mut points = 0u64;
    for shape in &shapes {
        let a = fb::workload(ctx, shape);
        points += a.len() as u64;
        let (_, v) = ctx.phase(&format!("fft:{}d", shape.len()), || {
            fb::run_roundtrip(ctx, &a)
        });
        if !v.is_pass() {
            worst = v;
        }
    }
    if matches!(worst, Verify::NotApplicable) {
        worst = Verify::check("fft all round trips", 0.0, 1e-8);
    }
    RunOutput {
        problem: "1-D/2-D/3-D, z".to_string(),
        verify: worst,
        points,
        iterations: 3,
    }
}

// ------------------------------------------------------------------ apps

/// `boson`.
pub fn boson(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    use dpf_apps::boson as b;
    let p = b::Params {
        nt: c.pow2(4),
        nx: c.pow2(8),
        sweeps: c.linear(3),
        ..Default::default()
    };
    let (_, verify) = b::run(ctx, &p);
    RunOutput {
        problem: format!("nt={}, nx={}, sweeps={}", p.nt, p.nx, p.sweeps),
        verify,
        points: (p.nt * p.nx * p.nx) as u64,
        iterations: p.sweeps as u64,
    }
}

/// `diff-1D`.
pub fn diff_1d(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    use dpf_apps::diff_1d as d;
    let p = d::Params {
        nx: c.pow2(64),
        steps: c.linear(4),
        ..Default::default()
    };
    let out = d::run(ctx, &p).map(|(_, verify, stats)| (verify, p.steps as u64, stats));
    let problem = format!("nx={}, steps={}", p.nx, p.steps);
    checkpointed(ctx, problem, p.nx as u64, out)
}

/// `diff-2D`.
pub fn diff_2d(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    use dpf_apps::diff_2d as d;
    let p = d::Params {
        nx: c.linear(16),
        steps: c.linear(3),
        ..Default::default()
    };
    let out = d::run(ctx, &p).map(|(_, verify, stats)| (verify, p.steps as u64, stats));
    let problem = format!("nx={}, steps={}", p.nx, p.steps);
    checkpointed(ctx, problem, (p.nx * p.nx) as u64, out)
}

/// `diff-3D` parameters, shared by the basic and fused versions.
fn diff_3d_params(c: ProblemClass) -> dpf_apps::diff_3d::Params {
    dpf_apps::diff_3d::Params {
        n: c.linear(8),
        steps: c.linear(3),
        ..Default::default()
    }
}

/// `diff-3D`.
pub fn diff_3d(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    use dpf_apps::diff_3d as d;
    let p = diff_3d_params(c);
    let out = d::run(ctx, &p).map(|(_, verify, stats)| (verify, p.steps as u64, stats));
    let problem = format!("n={}, steps={}", p.n, p.steps);
    checkpointed(ctx, problem, (p.n * p.n * p.n) as u64, out)
}

/// `diff-3D`, optimized (fused node-level kernel) version.
pub fn diff_3d_optimized(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    let p = diff_3d_params(c);
    let (_, verify) = dpf_apps::diff_3d::run_optimized(ctx, &p);
    RunOutput {
        problem: format!("n={}, steps={} (fused)", p.n, p.steps),
        verify,
        points: (p.n * p.n * p.n) as u64,
        iterations: p.steps as u64,
    }
}

/// `ellip-2D`.
pub fn ellip_2d(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    use dpf_apps::ellip_2d as e;
    let p = e::Params {
        n: c.linear(16),
        ..Default::default()
    };
    let (_, iters, verify) = e::run(ctx, &p);
    RunOutput {
        problem: format!("n={}", p.n),
        verify,
        points: (p.n * p.n) as u64,
        iterations: iters as u64,
    }
}

/// `fem-3D`.
pub fn fem_3d(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    use dpf_apps::fem_3d as f;
    let p = f::Params {
        nv_side: c.linear(4),
        max_iter: c.linear(500),
        ..Default::default()
    };
    let (_, iters, verify) = f::run(ctx, &p);
    RunOutput {
        problem: format!("vertices={}^3", p.nv_side),
        verify,
        points: (p.nv_side.pow(3)) as u64,
        iterations: iters as u64,
    }
}

/// `fermion` parameters, shared by the basic and parallel versions.
fn fermion_params(c: ProblemClass) -> dpf_apps::fermion::Params {
    dpf_apps::fermion::Params {
        sites: c.pow2(16),
        l: c.linear(4),
        chain: c.linear(2),
    }
}

/// `fermion`.
pub fn fermion(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    let p = fermion_params(c);
    let (_, verify) = dpf_apps::fermion::run(ctx, &p);
    RunOutput {
        problem: format!("sites={}, l={}, chain={}", p.sites, p.l, p.chain),
        verify,
        points: (p.sites * p.l * p.l) as u64,
        iterations: p.chain as u64,
    }
}

/// `fermion`, optimized (rayon + pre-resolved indirection) version.
pub fn fermion_optimized(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    let p = fermion_params(c);
    let (_, verify) = dpf_apps::fermion::run_optimized(ctx, &p);
    RunOutput {
        problem: format!("sites={}, l={}, chain={} (par)", p.sites, p.l, p.chain),
        verify,
        points: (p.sites * p.l * p.l) as u64,
        iterations: p.chain as u64,
    }
}

/// `gmo`.
pub fn gmo(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    use dpf_apps::gmo as g;
    let p = g::Params {
        ns: c.pow2(64),
        ntr: c.pow2(16),
        t0: c.pow2(20) as f64,
        ..Default::default()
    };
    let (_, verify) = g::run(ctx, &p);
    RunOutput {
        problem: format!("ns={}, ntr={}", p.ns, p.ntr),
        verify,
        points: (p.ns * p.ntr) as u64,
        iterations: 1,
    }
}

/// `ks-spectral`.
pub fn ks_spectral(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    use dpf_apps::ks_spectral as k;
    let p = k::Params {
        ne: c.linear(2),
        nx: c.pow2(32),
        steps: c.linear(5),
        ..Default::default()
    };
    let (_, verify) = k::run(ctx, &p);
    RunOutput {
        problem: format!("ne={}, nx={}, steps={}", p.ne, p.nx, p.steps),
        verify,
        points: (p.ne * p.nx) as u64,
        iterations: p.steps as u64,
    }
}

/// `md`.
pub fn md(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    use dpf_apps::md as m;
    let p = m::Params {
        side: c.linear(2),
        steps: c.linear(5),
        ..Default::default()
    };
    let out = m::run(ctx, &p).map(|(_, verify, stats)| (verify, p.steps as u64, stats));
    let problem = format!("np={}, steps={}", p.side.pow(3), p.steps);
    checkpointed(ctx, problem, p.side.pow(3) as u64, out)
}

/// `mdcell`.
pub fn mdcell(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    use dpf_apps::mdcell as m;
    let p = m::Params {
        nc: c.linear(3),
        steps: c.linear(2),
        ..Default::default()
    };
    let (_, verify) = m::run(ctx, &p);
    RunOutput {
        problem: format!("cells={}^3, cap={}, steps={}", p.nc, p.cap, p.steps),
        verify,
        points: (p.nc.pow(3) * p.cap) as u64,
        iterations: p.steps as u64,
    }
}

/// `n-body`, basic (broadcast) version.
pub fn n_body_broadcast(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    n_body_impl(ctx, c, dpf_apps::n_body::Variant::Broadcast)
}

/// `n-body`, optimized (cshift with symmetry) version.
pub fn n_body_symmetry(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    n_body_impl(ctx, c, dpf_apps::n_body::Variant::CshiftSymmetry)
}

fn n_body_impl(ctx: &Ctx, c: ProblemClass, variant: dpf_apps::n_body::Variant) -> RunOutput {
    use dpf_apps::n_body as nb;
    let n = c.pow2(24);
    let p = nb::Params { n, eps2: 1e-2 };
    let (_, _, verify) = nb::run(ctx, &p, variant);
    RunOutput {
        problem: format!("n={n}, variant={}", variant.name()),
        verify,
        points: n as u64,
        iterations: 1,
    }
}

/// `pic-simple`.
pub fn pic_simple(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    use dpf_apps::pic_simple as p;
    let pars = p::Params {
        np: c.pow2(128),
        ng: c.pow2(8),
        steps: c.linear(3),
        ..Default::default()
    };
    let (_, verify) = p::run(ctx, &pars);
    RunOutput {
        problem: format!("np={}, ng={}, steps={}", pars.np, pars.ng, pars.steps),
        verify,
        points: pars.np as u64,
        iterations: pars.steps as u64,
    }
}

/// `pic-gather-scatter`.
pub fn pic_gather_scatter(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    use dpf_apps::pic_gather_scatter as p;
    let pars = p::Params {
        np: c.pow2(128),
        ng: c.linear(4),
        steps: c.linear(2),
    };
    let (_, verify) = p::run(ctx, &pars);
    RunOutput {
        problem: format!("np={}, ng={}^3, steps={}", pars.np, pars.ng, pars.steps),
        verify,
        points: pars.np as u64,
        iterations: pars.steps as u64,
    }
}

/// `qcd-kernel`.
pub fn qcd_kernel(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    use dpf_apps::qcd_kernel as q;
    let p = q::Params {
        n: c.linear(2),
        max_iter: c.linear(200),
        ..Default::default()
    };
    let (_, iters, verify) = q::run(ctx, &p);
    RunOutput {
        problem: format!("lattice={}^4, m={}", p.n, p.mass),
        verify,
        points: (p.n.pow(4)) as u64,
        iterations: iters as u64,
    }
}

/// `qmc`.
pub fn qmc(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    use dpf_apps::qmc as q;
    let p = q::Params {
        n_walkers: c.pow2(512),
        blocks: c.linear(12),
        ..Default::default()
    };
    let blocks = p.blocks;
    let walkers = p.n_walkers;
    let (_, verify) = q::run(ctx, &p);
    RunOutput {
        problem: format!("walkers={walkers}, blocks={blocks}"),
        verify,
        points: walkers as u64,
        iterations: blocks as u64,
    }
}

/// `qptransport`.
pub fn qptransport(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    use dpf_apps::qptransport as q;
    let p = q::Params {
        n_src: c.linear(8),
        n_dst: c.linear(6),
        n_edges: c.pow2(64),
        iters: c.linear(40),
    };
    let iters = p.iters;
    let edges = p.n_edges;
    let (_, verify) = q::run(ctx, &p);
    RunOutput {
        problem: format!("edges={edges}, iters={iters}"),
        verify,
        points: edges as u64,
        iterations: iters as u64,
    }
}

/// `rp`.
pub fn rp(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    use dpf_apps::rp as r;
    let p = r::Params {
        n: c.linear(6),
        max_iter: c.linear(200),
        ..Default::default()
    };
    let (_, iters, verify) = r::run(ctx, &p);
    RunOutput {
        problem: format!("grid={}^3", p.n),
        verify,
        points: (p.n.pow(3)) as u64,
        iterations: iters as u64,
    }
}

/// `step4` parameters, shared by the basic and fused versions.
fn step4_params(c: ProblemClass) -> dpf_apps::step4::Params {
    dpf_apps::step4::Params {
        n: c.pow2(16),
        steps: c.linear(3),
        ..Default::default()
    }
}

/// `step4`.
pub fn step4(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    use dpf_apps::step4 as s;
    let p = step4_params(c);
    let (_, verify) = s::run(ctx, &p);
    RunOutput {
        problem: format!("n={}, steps={}", p.n, p.steps),
        verify,
        points: (s::FIELDS * p.n * p.n) as u64,
        iterations: p.steps as u64,
    }
}

/// `step4`, optimized (fused C/DPEAC-style kernel) version.
pub fn step4_optimized(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    use dpf_apps::step4 as s4;
    let p = step4_params(c);
    let (_, verify) = s4::run_optimized(ctx, &p);
    RunOutput {
        problem: format!("n={}, steps={} (fused)", p.n, p.steps),
        verify,
        points: (s4::FIELDS * p.n * p.n) as u64,
        iterations: p.steps as u64,
    }
}

/// `wave-1D` parameters, shared by the basic and fused versions.
fn wave_1d_params(c: ProblemClass) -> dpf_apps::wave_1d::Params {
    dpf_apps::wave_1d::Params {
        nx: c.pow2(64),
        steps: c.linear(10),
        ..Default::default()
    }
}

/// `wave-1D`.
pub fn wave_1d(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    use dpf_apps::wave_1d as w;
    let p = wave_1d_params(c);
    let out = w::run(ctx, &p).map(|(_, verify, stats)| (verify, p.steps as u64, stats));
    let problem = format!("nx={}, steps={}", p.nx, p.steps);
    checkpointed(ctx, problem, p.nx as u64, out)
}

/// `wave-1D`, optimized (fused flux kernel) version.
pub fn wave_1d_optimized(ctx: &Ctx, c: ProblemClass) -> RunOutput {
    use dpf_apps::wave_1d as w;
    let p = wave_1d_params(c);
    let mut st = w::workload(ctx, &p);
    for _ in 0..p.steps {
        w::step_optimized(ctx, &p, &mut st);
    }
    // Same d'Alembert check as the basic runner.
    let want = (p.nx as f64 / 4.0 + p.courant * p.steps as f64) % p.nx as f64;
    let peak = st
        .now
        .as_slice()
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i as f64)
        .unwrap();
    let mut d = (peak - want).abs();
    d = dpf_core::nan_min(d, p.nx as f64 - d);
    RunOutput {
        problem: format!("nx={}, steps={} (fused)", p.nx, p.steps),
        verify: dpf_core::Verify::check("wave-1D optimized pulse", d, 2.0),
        points: p.nx as u64,
        iterations: p.steps as u64,
    }
}

// ----------------------------------------------------------- re-exported

pub use crate::comm_bench::{run_gather, run_reduction, run_scatter, run_transpose};

#[cfg(test)]
mod tests {
    use super::*;
    use dpf_core::Machine;

    #[test]
    fn every_linalg_runner_verifies_small() {
        #[allow(clippy::type_complexity)]
        let runners: [(&str, fn(&Ctx, ProblemClass) -> RunOutput); 9] = [
            ("matvec-basic", matvec_basic),
            ("matvec-library", matvec_library),
            ("lu", lu),
            ("qr", qr),
            ("gauss-jordan", gauss_jordan),
            ("pcr", pcr_1d),
            ("conj-grad", conj_grad),
            ("jacobi", jacobi),
            ("fft", fft),
        ];
        for (name, f) in runners {
            let ctx = Ctx::new(Machine::cm5(8));
            let out = f(&ctx, ProblemClass::S);
            assert!(out.verify.is_pass(), "{name}: {}", out.verify);
            assert!(out.points > 0);
        }
    }

    #[test]
    fn pcr_variants_all_verify() {
        for f in [pcr_1d, pcr_2d, pcr_3d] {
            let ctx = Ctx::new(Machine::cm5(8));
            assert!(f(&ctx, ProblemClass::S).verify.is_pass());
        }
    }

    #[test]
    fn n_body_variants_verify() {
        for f in [n_body_broadcast, n_body_symmetry] {
            let ctx = Ctx::new(Machine::cm5(8));
            assert!(f(&ctx, ProblemClass::S).verify.is_pass());
        }
    }
}
