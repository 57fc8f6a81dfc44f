//! # vqmc-bench
//!
//! Reproduction harness for the paper's evaluation section.  One binary
//! per table/figure (see DESIGN.md §5 for the index):
//!
//! | binary | paper artefact |
//! |---|---|
//! | `repro_table1` | Table 1 — training time, RBM&MCMC vs MADE&AUTO |
//! | `repro_fig2` | Figure 2 — training curves (energy ± std) |
//! | `repro_table2` | Table 2 — converged objectives + classical baselines |
//! | `repro_fig3` / `repro_table7` | Figure 3 / Table 7 — weak-scaling sampling times |
//! | `repro_fig4` / `repro_table6` | Figure 4 / Table 6 — energy vs #GPUs at mbs = 4 |
//! | `repro_table3` | Table 3 — latent-size ablation |
//! | `repro_table4` | Table 4 — MCMC-scheme ablation |
//! | `repro_table5` | Table 5 — hitting time to target cut |
//! | `repro_efficiency` | Eq. 14/15 — parallel-efficiency models |
//!
//! Every binary accepts `--dims a,b,c`, `--iters N`, `--seeds K`,
//! `--batch B` and `--full` (paper-scale parameters; expect long runs
//! on a laptop), defaulting to scaled-down parameters that finish in
//! minutes while preserving every qualitative shape.  All binaries
//! print the table to stdout and, with `--csv PATH`, also write
//! machine-readable CSV.
//!
//! The [`gibbs`] (heat-bath) and [`tempering`] (replica-exchange)
//! samplers are MCMC comparison arms that only `repro_diagnostics`
//! reports; the production samplers live in `vqmc-sampler`.
//!
//! The `benches/` directory holds criterion micro-benchmarks for the
//! design-choice ablations DESIGN.md calls out (gemm threshold,
//! incremental AUTO sampling, SR solve cost, collective depth).

pub mod gibbs;
pub mod harness;
pub mod tempering;

pub use harness::{mean_std, parse_scale, pm, write_csv, Scale, Table};
