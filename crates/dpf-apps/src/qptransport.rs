//! `qptransport` — a quadratic programming problem on a bipartite graph
//! (the transportation problem).
//!
//! Table 5: `x(:)` — everything lives in 1-D edge/node arrays. Table 6:
//! `34n` FLOPs per iteration, memory `160n` bytes (d), communication
//! **10 Scatters, 1 Sort, 5 Scans, 1 CSHIFT, 1 EOSHIFT, 3 Reductions**
//! per iteration, no local axes.
//!
//! Minimize `½‖x − c‖²` over edge flows `x` subject to supply and demand
//! balances — solved by alternating projection onto the two balance
//! constraint sets (each projection is exact for quadratic objectives).
//! The edge list is **sorted** by source node once; per iteration the
//! supply-side row sums come from **segmented scans** over the sorted
//! runs (with a **CSHIFT/EOSHIFT** building the segment flags) and the
//! demand side from combining **scatters**; **reductions** track
//! feasibility.

use dpf_array::{DistArray, PAR};
use dpf_comm::{
    apply_perm, cshift, eoshift, gather, scatter_combine, segmented_copy_scan, segmented_scan_add,
    sort_keys, sum_all, Combine,
};
use dpf_core::{nan_max, Ctx, Verify};

/// Benchmark parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// Supply nodes.
    pub n_src: usize,
    /// Demand nodes.
    pub n_dst: usize,
    /// Edges.
    pub n_edges: usize,
    /// Projection sweeps.
    pub iters: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            n_src: 16,
            n_dst: 12,
            n_edges: 256,
            iters: 60,
        }
    }
}

/// The bipartite instance: edge endpoints, cost-preferred flows, and the
/// balanced supply/demand vectors.
pub struct Instance {
    /// Edge source node (sorted ascending after setup).
    pub src: DistArray<i32>,
    /// Edge destination node.
    pub dst: DistArray<i32>,
    /// Preferred flow per edge (the QP's linear-cost pull).
    pub pref: DistArray<f64>,
    /// Supply per source node.
    pub supply: Vec<f64>,
    /// Demand per destination node.
    pub demand: Vec<f64>,
    /// Edges per source node (for the projection divisor).
    pub src_deg: Vec<f64>,
    /// Edges per destination node.
    pub dst_deg: Vec<f64>,
}

/// Build a random connected instance with balanced totals. The **Sort**
/// of Table 6 happens here: edges are ordered by source node so the
/// supply-side sums become segmented-scan runs.
pub fn workload(ctx: &Ctx, p: &Params) -> Instance {
    let ne = p.n_edges;
    let raw_src = DistArray::<i32>::from_fn(ctx, &[ne], &[PAR], |i| {
        if i[0] < p.n_src {
            i[0] as i32 // guarantee every source has an edge
        } else {
            (crate::util::pseudo01(i[0] * 31 + 7) * p.n_src as f64) as i32
        }
    });
    let (src, perm) = sort_keys(ctx, &raw_src);
    let raw_dst = DistArray::<i32>::from_fn(ctx, &[ne], &[PAR], |i| {
        if i[0] < p.n_dst {
            i[0] as i32
        } else {
            (crate::util::pseudo01(i[0] * 17 + 3) * p.n_dst as f64) as i32
        }
    });
    let dst = apply_perm_i32(ctx, &raw_dst, &perm);
    let pref =
        DistArray::<f64>::from_fn(ctx, &[ne], &[PAR], |i| crate::util::pseudo01(i[0] * 13 + 1))
            .declare(ctx);
    // Balanced supplies/demands proportional to node degrees.
    let mut src_deg = vec![0.0f64; p.n_src];
    for &s in src.as_slice() {
        src_deg[s as usize] += 1.0;
    }
    let mut dst_deg = vec![0.0f64; p.n_dst];
    for &d in dst.as_slice() {
        dst_deg[d as usize] += 1.0;
    }
    let total = ne as f64;
    let supply: Vec<f64> = src_deg.iter().map(|d| d / total * 100.0).collect();
    let demand: Vec<f64> = dst_deg.iter().map(|d| d / total * 100.0).collect();
    Instance {
        src,
        dst,
        pref,
        supply,
        demand,
        src_deg,
        dst_deg,
    }
}

fn apply_perm_i32(ctx: &Ctx, a: &DistArray<i32>, perm: &DistArray<i32>) -> DistArray<i32> {
    apply_perm(ctx, a, perm)
}

/// One alternating-projection iteration; returns the updated flows and
/// the infeasibility after the supply projection.
fn project(ctx: &Ctx, inst: &Instance, x: &DistArray<f64>) -> (DistArray<f64>, f64) {
    let ne = x.len();
    // Segment flags from the sorted source ids: the EOSHIFT brings each
    // edge its predecessor's source id with a sentinel entering at edge 0.
    let first = eoshift(ctx, &inst.src, 0, -1, -1);
    let seg = inst.src.zip_map(ctx, 0, &first, |s, pr| s != pr);
    // Supply-side row sums: segmented sum-scan, total broadcast back via
    // segmented copy-scan of the run totals (2 Scans; a 3rd scan marks
    // run ends).
    let sums = segmented_scan_add(ctx, x, &seg, 0);
    let seg_next = {
        let nxt = cshift(ctx, &seg, 0, 1);
        nxt.indexed_map(ctx, 0, move |idx, v| idx[0] + 1 == ne || v)
    };
    // Place each run's total at its start, then copy-scan down the run.
    let totals_at_end = sums.zip_map(ctx, 0, &seg_next, |v, e| if e { v } else { 0.0 });
    let run_total = {
        // Move totals from run end to run start by a backward segmented
        // copy: reverse trick via scatter below is overkill — copy-scan
        // from the starts after a gather of the end values.
        // Simpler: for each edge, the run total is the segmented copy of
        // end-values scanned backward; implement with one more pass.
        backward_copy(ctx, &totals_at_end, &seg)
    };
    // Projection onto Σ_row x = supply: x += (supply − rowsum)/deg.
    let supply_e = gather(
        ctx,
        &DistArray::<f64>::from_vec(ctx, &[inst.supply.len()], &[PAR], inst.supply.clone()),
        &inst.src,
    );
    let deg_e = gather(
        ctx,
        &DistArray::<f64>::from_vec(ctx, &[inst.src_deg.len()], &[PAR], inst.src_deg.clone()),
        &inst.src,
    );
    ctx.add_flops(3 * ne as u64 + 4 * ne as u64);
    let x1 = {
        let corr =
            supply_e
                .zip_map(ctx, 1, &run_total, |s, t| s - t)
                .zip_map(ctx, 4, &deg_e, |c, d| c / d);
        x.zip_map(ctx, 1, &corr, |xi, c| xi + c)
    };
    let infeas = {
        let viol = supply_e.zip_map(ctx, 1, &run_total, |s, t| (s - t).abs());
        sum_all(ctx, &viol) / ne as f64
    };
    // Demand-side: column sums via combining scatter (the unsorted side),
    // then correction gathered back. Table 6's scatter block.
    let nd = inst.demand.len();
    let mut col = DistArray::<f64>::zeros(ctx, &[nd], &[PAR]);
    scatter_combine(ctx, &mut col, &inst.dst, &x1, Combine::Add);
    let demand_a = DistArray::<f64>::from_vec(ctx, &[nd], &[PAR], inst.demand.clone());
    let ddeg = DistArray::<f64>::from_vec(ctx, &[nd], &[PAR], inst.dst_deg.clone());
    let corr_node = demand_a
        .zip_map(ctx, 1, &col, |d, c| d - c)
        .zip_map(ctx, 4, &ddeg, |c, dg| c / dg.max(1.0));
    let corr_e = gather(ctx, &corr_node, &inst.dst);
    let x2 = x1.zip_map(ctx, 1, &corr_e, |xi, c| xi + c);
    (x2, infeas)
}

/// Segmented backward copy: every element receives the value sitting at
/// its segment's **last** position (`seg` flags segment starts).
fn backward_copy(ctx: &Ctx, ends: &DistArray<f64>, seg: &DistArray<bool>) -> DistArray<f64> {
    // Reverse, forward copy-scan with reversed flags, reverse again —
    // all local moves plus the Scan the paper counts.
    let n = ends.len();
    let rev = |a: &DistArray<f64>| {
        DistArray::<f64>::from_fn(ctx, &[n], &[PAR], |i| a.as_slice()[n - 1 - i[0]])
    };
    let r = rev(ends);
    let seg_rev = DistArray::<bool>::from_fn(ctx, &[n], &[PAR], |i| {
        // A reversed segment starts where the forward segment ended: at
        // reversed index k (original n-1-k), start iff original position
        // was a segment end, i.e. original+1 is a start or it's the last.
        let orig = n - 1 - i[0];
        orig + 1 >= n || seg.as_slice()[orig + 1]
    });
    let copied = segmented_copy_scan(ctx, &r, &seg_rev, 0);
    rev(&copied)
}

/// Run the benchmark; verification checks both constraint families.
pub fn run(ctx: &Ctx, p: &Params) -> (DistArray<f64>, Verify) {
    let inst = workload(ctx, p);
    let mut x = inst.pref.clone();
    let mut infeas = f64::INFINITY;
    for _ in 0..p.iters {
        let (nx, e) = project(ctx, &inst, &x);
        x = nx;
        infeas = e;
    }
    // Final feasibility of both sides.
    let mut row = vec![0.0f64; inst.supply.len()];
    let mut col = vec![0.0f64; inst.demand.len()];
    for k in 0..x.len() {
        row[inst.src.as_slice()[k] as usize] += x.as_slice()[k];
        col[inst.dst.as_slice()[k] as usize] += x.as_slice()[k];
    }
    let worst_row = row
        .iter()
        .zip(&inst.supply)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, nan_max);
    let worst_col = col
        .iter()
        .zip(&inst.demand)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, nan_max);
    let _ = infeas;
    (
        x,
        Verify::check(
            "qptransport feasibility",
            nan_max(worst_row, worst_col),
            1e-6,
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpf_core::{CommPattern, Machine};

    fn ctx() -> Ctx {
        Ctx::new(Machine::cm5(4))
    }

    #[test]
    fn alternating_projection_reaches_feasibility() {
        let ctx = ctx();
        let (_, v) = run(&ctx, &Params::default());
        assert!(v.is_pass(), "{v}");
    }

    #[test]
    fn flows_sum_to_total_supply() {
        let ctx = ctx();
        let p = Params::default();
        let (x, _) = run(&ctx, &p);
        let total: f64 = x.as_slice().iter().sum();
        assert!((total - 100.0).abs() < 1e-6, "total {total}");
    }

    #[test]
    fn backward_copy_fills_runs_with_their_end_value() {
        let ctx = ctx();
        let ends =
            DistArray::<f64>::from_vec(&ctx, &[6], &[PAR], vec![0.0, 0.0, 7.0, 0.0, 0.0, 9.0]);
        let seg = DistArray::<bool>::from_vec(
            &ctx,
            &[6],
            &[PAR],
            vec![true, false, false, true, false, false],
        );
        let out = backward_copy(&ctx, &ends, &seg);
        assert_eq!(out.to_vec(), vec![7.0, 7.0, 7.0, 9.0, 9.0, 9.0]);
    }

    #[test]
    fn per_iteration_pattern_calls() {
        let ctx = ctx();
        let p = Params {
            iters: 1,
            ..Params::default()
        };
        let _ = run(&ctx, &p);
        // Workload setup: 1 Sort. Per iteration: 2 Scans (segmented sum +
        // backward copy), CSHIFTs and the EOSHIFT, 1 ScatterCombine,
        // 3 Gathers, 1 Reduction.
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Sort), 1);
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Scan), 2);
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Eoshift), 1);
        assert!(ctx.instr.pattern_calls(CommPattern::Cshift) >= 1);
        assert_eq!(ctx.instr.pattern_calls(CommPattern::ScatterCombine), 1);
        assert_eq!(ctx.instr.pattern_calls(CommPattern::Reduction), 1);
    }
}
