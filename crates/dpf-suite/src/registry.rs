//! The benchmark registry: all 32 DPF codes with their paper
//! characterization (Tables 1–8) and runnable variants.
//!
//! Table 1's check-mark matrix did not survive the paper's text
//! extraction; the `paper_versions` fields are a documented
//! reconstruction (EXPERIMENTS.md, "Table 1") based on which codes the
//! paper names as having optimized/library/CMSSL/C-DPEAC counterparts.
//! A claimed version with no runnable variant is explained at its entry
//! and pinned by `tests/paper_facts.rs`.

use dpf_core::CommPattern as P;
use dpf_core::LocalAccess as L;

use crate::benchmark::{BenchEntry, Group, Variant, Version};
use crate::runners as r;

use Version::{Basic, CDpeac, Cmssl, Library, Optimized};

macro_rules! variants {
    ($($ver:ident => $f:path),+ $(,)?) => {
        &[$(Variant { version: Version::$ver, run: $f }),+]
    };
}

/// The full registry, in Table 1's alphabetical order.
pub fn registry() -> Vec<BenchEntry> {
    vec![
        BenchEntry {
            name: "boson",
            group: Group::Application,
            paper_versions: &[Basic],
            layouts: &["X(:serial,:,:)"],
            local_access: L::Strided,
            patterns: &[P::Cshift],
            techniques: &[("Stencil", "CSHIFT")],
            flops_formula: "4(258 + 36/nt)·nt·nx·ny",
            memory_formula: "20·nx·ny + 64·nt + 6000 + 2000·mb + 768·nt·nx·ny",
            comm_formula: "38 CSHIFTs",
            variants: variants!(Basic => r::boson),
        },
        BenchEntry {
            name: "conj-grad",
            group: Group::LinearAlgebra,
            paper_versions: &[Basic],
            layouts: &["X(:)"],
            local_access: L::NA,
            patterns: &[P::Cshift, P::Reduction],
            techniques: &[],
            flops_formula: "15n",
            memory_formula: "d: 40n",
            comm_formula: "4 CSHIFTs, 3 Reductions",
            variants: variants!(Basic => r::conj_grad, Optimized => r::conj_grad_optimized),
        },
        BenchEntry {
            name: "diff-1D",
            group: Group::Application,
            paper_versions: &[Basic],
            layouts: &["x(:)"],
            local_access: L::NA,
            patterns: &[P::Stencil, P::Cshift],
            techniques: &[("Stencil", "Array sections")],
            flops_formula: "13nx + 4P·logP − 8",
            memory_formula: "d: 32nx",
            comm_formula: "1 3-point Stencil, substructuring w/ pcr",
            variants: variants!(Basic => r::diff_1d),
        },
        BenchEntry {
            name: "diff-2D",
            group: Group::Application,
            paper_versions: &[Basic],
            layouts: &["x(:serial,:)"],
            local_access: L::Strided,
            patterns: &[P::Stencil, P::Aapc],
            techniques: &[("Stencil", "Array sections")],
            flops_formula: "10nx² − 16nx + 16",
            memory_formula: "d: 32nx²",
            comm_formula: "1 3-point Stencil, 1 AAPC",
            variants: variants!(Basic => r::diff_2d),
        },
        BenchEntry {
            name: "diff-3D",
            group: Group::Application,
            paper_versions: &[Basic],
            layouts: &["x(:,:,:)"],
            local_access: L::NA,
            patterns: &[P::Stencil],
            techniques: &[("Stencil", "Array sections")],
            flops_formula: "9(nx−2)(ny−2)(nz−2)",
            memory_formula: "d: 8·nx·ny·nz",
            comm_formula: "1 7-point Stencil",
            variants: variants!(Basic => r::diff_3d, Optimized => r::diff_3d_optimized),
        },
        BenchEntry {
            name: "ellip-2D",
            group: Group::Application,
            paper_versions: &[Basic],
            layouts: &["x(:,:)"],
            local_access: L::NA,
            patterns: &[P::Cshift, P::Reduction],
            techniques: &[("Stencil", "CSHIFT")],
            flops_formula: "38·nx·ny",
            memory_formula: "d: 96·nx·ny",
            comm_formula: "4 CSHIFTs, 3 Reductions",
            variants: variants!(Basic => r::ellip_2d),
        },
        BenchEntry {
            name: "fem-3D",
            group: Group::Application,
            // No Cmssl variant: the CMSSL partitioned gather is unpublished CM-5
            // library code, and no faithful port exists.
            paper_versions: &[Basic, Cmssl],
            layouts: &["x(:serial,:,:)", "x(:serial,:serial,:)"],
            local_access: L::Direct,
            patterns: &[P::Gather, P::ScatterCombine],
            techniques: &[
                ("Gather", "CMSSL partitioned gather utility"),
                ("Scatter w/ combine", "CMSSL partitioned scatter utility"),
            ],
            flops_formula: "18·nve·ne",
            memory_formula: "s: 56·nve·ne + 140·nv + 1200·ne",
            comm_formula: "1 Gather, 1 Scatter w/ combine",
            variants: variants!(Basic => r::fem_3d),
        },
        BenchEntry {
            name: "fermion",
            group: Group::Application,
            paper_versions: &[Basic, Optimized],
            layouts: &["x(:,:serial,:serial)"],
            local_access: L::Indirect,
            patterns: &[],
            techniques: &[],
            flops_formula: "local matmul (2·chain·sites·l³)",
            memory_formula: "d: 144n² + 6ln + 48p",
            comm_formula: "N/A (embarrassingly parallel)",
            variants: variants!(Basic => r::fermion, Optimized => r::fermion_optimized),
        },
        BenchEntry {
            name: "fft",
            group: Group::LinearAlgebra,
            // No Library/Cmssl variants: both wrap CMSSL FFTs whose twiddle
            // schedules are unpublished; the Basic butterfly is the reproducible one.
            paper_versions: &[Basic, Library, Cmssl],
            layouts: &["1-D: X(:)", "2-D: X(:)", "3-D: X(:)"],
            local_access: L::NA,
            patterns: &[P::Cshift, P::Aapc],
            techniques: &[],
            flops_formula: "5n / 10n² / 15n³ per stage",
            memory_formula: "z: 100n / 115n² / 136n³",
            comm_formula: "2/4/6 CSHIFTs, 1/2/3 AAPC per stage",
            variants: variants!(Basic => r::fft),
        },
        BenchEntry {
            name: "gather",
            group: Group::Communication,
            paper_versions: &[Basic],
            layouts: &["x(:)"],
            local_access: L::NA,
            patterns: &[P::Gather],
            techniques: &[("Gather", "FORALL w/ indirect addressing")],
            flops_formula: "0 (pure data motion)",
            memory_formula: "d: 20n",
            comm_formula: "1 Gather per pass",
            variants: variants!(Basic => r::run_gather),
        },
        BenchEntry {
            name: "gauss-jordan",
            group: Group::LinearAlgebra,
            paper_versions: &[Basic],
            layouts: &["X(:)", "X(:,:)"],
            local_access: L::NA,
            patterns: &[P::Reduction, P::Send, P::Get, P::Broadcast],
            techniques: &[("Scatter", "indirect addressing")],
            flops_formula: "n + 2 + 2n²",
            memory_formula: "s: 28n² + 16n",
            comm_formula: "1 Reduction, 3 Sends, 2 Gets, 2 Broadcasts",
            variants: variants!(Basic => r::gauss_jordan),
        },
        BenchEntry {
            name: "gmo",
            group: Group::Application,
            // No CDpeac variant: it is hand-written CM-5 vector-unit assembly; the
            // paper gives no source and the port has no VU analogue.
            paper_versions: &[Basic, CDpeac],
            layouts: &["x(:)", "x(:serial,:)"],
            local_access: L::Indirect,
            patterns: &[],
            techniques: &[],
            flops_formula: "6p",
            memory_formula: "s: p·(4·ns_in·ntr_in + 4·ns_out·(ntr_out+2) + 8 + 12·nvec)",
            comm_formula: "N/A (embarrassingly parallel)",
            variants: variants!(Basic => r::gmo),
        },
        BenchEntry {
            name: "jacobi",
            group: Group::LinearAlgebra,
            paper_versions: &[Basic],
            layouts: &["X(:)", "X(:,:)"],
            local_access: L::NA,
            patterns: &[P::Cshift, P::Send, P::Broadcast],
            techniques: &[],
            flops_formula: "6n² + 26n",
            memory_formula: "s: 44n² + 28n",
            comm_formula: "2 CSHIFTs (1-D), 2 CSHIFTs (2-D), 2 Sends, 4 1-D to 2-D Broadcasts",
            variants: variants!(Basic => r::jacobi),
        },
        BenchEntry {
            name: "ks-spectral",
            group: Group::Application,
            // No Library variant: it calls CMSSL spectral transforms (unpublished);
            // the Basic pseudo-spectral loop is the reproducible one.
            paper_versions: &[Basic, Library],
            layouts: &["x(:,:)"],
            local_access: L::NA,
            patterns: &[P::Butterfly],
            techniques: &[],
            flops_formula: "(76 + 40·log2 nx)·nx·ne",
            memory_formula: "d: 144·nx·ne",
            comm_formula: "8 1-D FFTs on 2-D arrays",
            variants: variants!(Basic => r::ks_spectral),
        },
        BenchEntry {
            name: "lu",
            group: Group::LinearAlgebra,
            paper_versions: &[Basic, Cmssl],
            layouts: &["X(:,:,:)"],
            local_access: L::NA,
            patterns: &[P::Reduction, P::Broadcast],
            techniques: &[],
            flops_formula: "factor: (2/3)n³; solve: 2rn²",
            memory_formula: "d: 8n(n + 2r)",
            comm_formula: "factor: 1 Reduction, 1 Broadcast; solve: 1 Reduction",
            variants: variants!(Basic => r::lu, Cmssl => r::lu_blocked),
        },
        BenchEntry {
            name: "matrix-vector",
            group: Group::LinearAlgebra,
            // No Optimized/Cmssl variants: the layout-directive variant and the
            // CMSSL matvec are not ported. Library is the spread/reduce variant.
            paper_versions: &[Basic, Optimized, Library, Cmssl],
            layouts: &[
                "(1) X(:), X(:,:)",
                "(2) X(:,:), X(:,:,:)",
                "(3) X(:serial,:), X(:serial,:serial,:)",
                "(4) X(:,:), X(:serial,:,:)",
            ],
            local_access: L::Direct,
            patterns: &[P::Broadcast, P::Reduction],
            techniques: &[],
            flops_formula: "s,d: 2nmi; c,z: 8nmi",
            memory_formula: "d: 8(n + nm + m)i",
            comm_formula: "1 Broadcast, 1 Reduction",
            variants: variants!(Basic => r::matvec_basic, Library => r::matvec_library),
        },
        BenchEntry {
            name: "md",
            group: Group::Application,
            paper_versions: &[Basic],
            layouts: &["x(:)", "x(:,:)"],
            local_access: L::NA,
            patterns: &[P::Spread, P::Reduction, P::Send, P::Aabc],
            techniques: &[("AABC", "SPREAD")],
            flops_formula: "(23 + 51np)·np",
            memory_formula: "d: 160np + 80np²",
            comm_formula: "6 1-D to 2-D SPREADs, 3 1-D to 2-D sends, 3 2-D to 1-D Reductions",
            variants: variants!(Basic => r::md),
        },
        BenchEntry {
            name: "mdcell",
            group: Group::Application,
            paper_versions: &[Basic],
            layouts: &["x(:serial,:,:,:)"],
            local_access: L::Indirect,
            patterns: &[P::Cshift, P::Scatter],
            techniques: &[
                ("Stencil", "CSHIFT"),
                ("Scatter", "CMF aset 1D or FORALL w/ indirect addressing"),
            ],
            flops_formula: "(101 + 392np)·np·nc³",
            memory_formula: "d: (184 + 160np)·nx·ny·nz",
            comm_formula: "195 CSHIFTs, 7 Scatters on local axis",
            variants: variants!(Basic => r::mdcell),
        },
        BenchEntry {
            name: "n-body",
            group: Group::Application,
            paper_versions: &[Basic, Optimized],
            layouts: &["x(:serial,:)"],
            local_access: L::Direct,
            patterns: &[P::Broadcast, P::Aabc],
            techniques: &[("AABC", "CSHIFT, SPREAD, broadcast")],
            flops_formula: "17n² (broadcast/spread) / 13.5n(n−1) (cshift w/sym.)",
            memory_formula: "s: 36n (plain) / 20n + 36m (fill)",
            comm_formula: "3 Broadcasts / 3 SPREADs / 3 CSHIFTs per step",
            variants: variants!(Basic => r::n_body_broadcast, Optimized => r::n_body_symmetry),
        },
        BenchEntry {
            name: "pcr",
            group: Group::LinearAlgebra,
            paper_versions: &[Basic, Optimized],
            layouts: &[
                "(1) X(:), X(:serial,:)",
                "(2) X(:,:), X(:serial,:,:)",
                "(3) X(:,:,:), X(:serial,:,:,:)",
            ],
            local_access: L::Direct,
            patterns: &[P::Cshift],
            techniques: &[],
            flops_formula: "(5r + 12)n, r = log2 n",
            memory_formula: "d: 8(r + 4)n",
            comm_formula: "(2r + 4) CSHIFTs",
            variants: variants!(Basic => r::pcr_1d, Optimized => r::pcr_2d, Library => r::pcr_3d),
        },
        BenchEntry {
            name: "pic-gather-scatter",
            group: Group::Application,
            paper_versions: &[Basic],
            layouts: &["x(:serial,:)", "x(:serial,:,:)"],
            local_access: L::Indirect,
            patterns: &[P::Sort, P::Scan, P::Scatter, P::Gather],
            techniques: &[
                ("Gather", "FORALL w/ indirect addressing"),
                (
                    "Scatter w/ combine",
                    "CMF send add or FORALL w/ indirect addressing",
                ),
            ],
            flops_formula: "270 per particle",
            memory_formula: "s: 12nx³ + 88np",
            comm_formula:
                "81 Scans, 27 Scatters w/ add, 27 1-D to 3-D Scatters, 27 3-D to 1-D Gathers",
            variants: variants!(Basic => r::pic_gather_scatter),
        },
        BenchEntry {
            name: "pic-simple",
            group: Group::Application,
            paper_versions: &[Basic],
            layouts: &["x(:serial,:)", "x(:serial,:,:)"],
            local_access: L::Direct,
            patterns: &[P::GatherCombine, P::Butterfly, P::Gather],
            techniques: &[
                ("Gather", "FORALL w/ indirect addressing"),
                ("Gather w/ combine", "FORALL w/ SUM"),
            ],
            flops_formula: "np + 15·nx·ny·(log nx + log ny)",
            memory_formula: "d: 60np + 72·nx·ny",
            comm_formula: "1 Gather w/ add 1-D to 2-D, 3 FFT, 1 Gather 3-D to 2-D",
            variants: variants!(Basic => r::pic_simple),
        },
        BenchEntry {
            name: "qcd-kernel",
            group: Group::Application,
            // No CDpeac variant: it is CM-5 vector-unit assembly with no published
            // source; the SU(3) multiply is reproduced in Basic only.
            paper_versions: &[Basic, CDpeac],
            layouts: &["x(:serial,:,:,:,:,:)", "x(:serial,:serial,:,:,:,:,:)"],
            local_access: L::Direct,
            patterns: &[P::Cshift, P::Reduction],
            techniques: &[("Stencil", "CSHIFT")],
            flops_formula: "606·nx·ny·nz·nt",
            memory_formula: "s: 360·nx·ny·nz·nt",
            comm_formula: "4 CSHIFTs",
            variants: variants!(Basic => r::qcd_kernel),
        },
        BenchEntry {
            name: "qmc",
            group: Group::Application,
            paper_versions: &[Basic],
            layouts: &["x(:,:)", "x(:serial,:serial,:,:)"],
            local_access: L::Direct,
            patterns: &[P::Scan, P::Send, P::Reduction],
            techniques: &[("Scatter w/ combine", "CMF send overwrite")],
            flops_formula: "[(42 + 2·no·nmaxw)·np·nd·nw·ne + (142no + 251)·nw·ne]·nb",
            memory_formula: "d: 16·np·nd + 96·nw·ne·nmaxw",
            comm_formula: "SPREADs 3-D to 1-D, 5 Reductions, (np·nd + 4) Scans, (np·nd + 1) Sends",
            variants: variants!(Basic => r::qmc),
        },
        BenchEntry {
            name: "qptransport",
            group: Group::Application,
            paper_versions: &[Basic],
            layouts: &["x(:)"],
            local_access: L::NA,
            patterns: &[
                P::Sort,
                P::Scan,
                P::Cshift,
                P::Eoshift,
                P::ScatterCombine,
                P::Gather,
                P::Reduction,
            ],
            techniques: &[("Scatter", "indirect addressing")],
            flops_formula: "34n",
            memory_formula: "d: 160n",
            comm_formula: "10 Scatters, 1 Sort, 5 Scans, 1 CSHIFT, 1 EOSHIFT, 3 Reductions",
            variants: variants!(Basic => r::qptransport),
        },
        BenchEntry {
            name: "qr",
            group: Group::LinearAlgebra,
            // No Cmssl variant: the CMSSL QR internals (blocked Householder
            // schedule) are unpublished; Basic Householder is the reproducible one.
            paper_versions: &[Basic, Cmssl],
            layouts: &["X(:,:)"],
            local_access: L::NA,
            patterns: &[P::Reduction, P::Broadcast],
            techniques: &[],
            flops_formula: "factor: (5.5m − 0.5n)n; solve: (8m − 1.5n)n",
            memory_formula: "d: 36mn (factor), 44mn + 8m(r+1) (solve)",
            comm_formula: "factor: 2 Reductions, 2 Broadcasts; solve: 2 Reductions, 4 Broadcasts",
            variants: variants!(Basic => r::qr),
        },
        BenchEntry {
            name: "reduction",
            group: Group::Communication,
            paper_versions: &[Basic],
            layouts: &["x(:)", "x(:,:)"],
            local_access: L::NA,
            patterns: &[P::Reduction],
            techniques: &[],
            flops_formula: "n − 1 per reduction",
            memory_formula: "d: 8n + 8·side²",
            comm_formula: "1 Reduction per pass",
            variants: variants!(Basic => r::run_reduction),
        },
        BenchEntry {
            name: "rp",
            group: Group::Application,
            paper_versions: &[Basic],
            layouts: &["x(:,:,:)"],
            local_access: L::NA,
            patterns: &[P::Cshift, P::Reduction],
            techniques: &[("Stencil", "CSHIFT")],
            flops_formula: "44·nx·ny·nz",
            memory_formula: "s: 60·nx·ny·nz",
            comm_formula: "2 Reductions, 12 CSHIFTs (2 7-point Stencils)",
            variants: variants!(Basic => r::rp),
        },
        BenchEntry {
            name: "scatter",
            group: Group::Communication,
            paper_versions: &[Basic],
            layouts: &["x(:)"],
            local_access: L::NA,
            patterns: &[P::Scatter, P::ScatterCombine],
            techniques: &[("Scatter", "FORALL w/ indirect addressing")],
            flops_formula: "0 (pure data motion)",
            memory_formula: "d: 20n",
            comm_formula: "1 Scatter per pass",
            variants: variants!(Basic => r::run_scatter),
        },
        BenchEntry {
            name: "step4",
            group: Group::Application,
            paper_versions: &[Basic, CDpeac],
            layouts: &["x(:serial,:,:)"],
            local_access: L::Direct,
            patterns: &[P::Cshift],
            techniques: &[("Stencil", "chained CSHIFT")],
            flops_formula: "2500 per point-block",
            memory_formula: "s: 500·nx·ny",
            comm_formula: "128 CSHIFTs (8 16-point Stencils)",
            variants: variants!(Basic => r::step4, CDpeac => r::step4_optimized),
        },
        BenchEntry {
            name: "transpose",
            group: Group::Communication,
            // No Optimized variant: it depends on CM Fortran layout directives the
            // port does not model; Basic covers the all-to-all schedule.
            paper_versions: &[Basic, Optimized],
            layouts: &["x(:,:)"],
            local_access: L::NA,
            patterns: &[P::Aapc],
            techniques: &[],
            flops_formula: "0 (pure data motion)",
            memory_formula: "d: 16·side²",
            comm_formula: "1 AAPC per pass",
            variants: variants!(Basic => r::run_transpose),
        },
        BenchEntry {
            name: "wave-1D",
            group: Group::Application,
            paper_versions: &[Basic, Optimized],
            layouts: &["x(:)"],
            local_access: L::NA,
            patterns: &[P::Cshift, P::Butterfly],
            techniques: &[("Stencil", "CSHIFT")],
            flops_formula: "29nx + 10nx·log nx",
            memory_formula: "d: 64nx",
            comm_formula: "12 CSHIFTs, 2 1-D FFTs",
            variants: variants!(Basic => r::wave_1d, Optimized => r::wave_1d_optimized),
        },
    ]
}

/// Look up one entry by name.
pub fn find(name: &str) -> Option<BenchEntry> {
    registry().into_iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_32_benchmarks() {
        let reg = registry();
        assert_eq!(reg.len(), 32);
        let comm = reg
            .iter()
            .filter(|e| e.group == Group::Communication)
            .count();
        let la = reg
            .iter()
            .filter(|e| e.group == Group::LinearAlgebra)
            .count();
        let app = reg.iter().filter(|e| e.group == Group::Application).count();
        assert_eq!((comm, la, app), (4, 8, 20));
    }

    #[test]
    fn names_are_unique_and_sorted_like_table1() {
        let reg = registry();
        let names: Vec<&str> = reg.iter().map(|e| e.name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 32, "duplicate names");
        assert_eq!(names, sorted, "registry must stay in Table 1 order");
    }

    #[test]
    fn every_entry_has_a_basic_variant_first() {
        for e in registry() {
            assert!(!e.variants.is_empty(), "{} has no variants", e.name);
            assert_eq!(e.variants[0].version, Version::Basic, "{}", e.name);
            assert!(e.paper_versions.contains(&Version::Basic), "{}", e.name);
        }
    }

    #[test]
    fn find_locates_entries() {
        assert!(find("qcd-kernel").is_some());
        assert!(find("nonexistent").is_none());
    }

    #[test]
    fn embarrassingly_parallel_codes_have_no_patterns() {
        // Paper §4: gmo and fermion are the only two embarrassingly
        // parallel application codes.
        for e in registry() {
            let ep = e.patterns.is_empty();
            let expect = e.name == "gmo" || e.name == "fermion";
            assert_eq!(ep, expect, "{}", e.name);
        }
    }
}
