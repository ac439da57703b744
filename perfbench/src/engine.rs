//! The block-engine layer probe: single-threaded calls to
//! `run_systolic_with_scratch`, each inside a `systolic.run` span, and the
//! cycle model (`alignment_cycles`, `throughput_aps`) over the same runs.

use crate::inputs::{FREQ_MHZ, NPE};
use crate::metrics::Values;
use crate::trace::Tracer;
use dphls_core::{DpOutput, KernelConfig, LaneKernel};
use dphls_systolic::{
    alignment_cycles, effective_cycles_per_alignment, run_systolic_with_scratch, throughput_aps,
    BlockStats, CycleModelParams, KernelCycleInfo, SystolicScratch,
};

/// One probed alignment: the engine's output and its structural counts,
/// with the configuration it ran under.
pub struct Probed<S> {
    /// Functional output.
    pub output: DpOutput<S>,
    /// Structural counts for the cycle model.
    pub stats: BlockStats,
    /// The kernel configuration of the run.
    pub config: KernelConfig,
}

/// Runs every pair through `run_systolic_with_scratch` on this thread,
/// one `systolic.run` span per call.
///
/// # Panics
///
/// Panics if the engine rejects a pair (the workloads are sized so that it
/// never does).
pub fn probe<'a, K: LaneKernel>(
    tracer: &mut Tracer,
    params: &K::Params,
    config: &KernelConfig,
    pairs: impl IntoIterator<Item = (&'a [K::Sym], &'a [K::Sym])>,
) -> Vec<Probed<K::Score>>
where
    K::Sym: 'a,
{
    let mut scratch = SystolicScratch::new();
    pairs
        .into_iter()
        .map(|(q, r)| {
            let run = tracer
                .span("systolic.run", None, || {
                    run_systolic_with_scratch::<K>(params, q, r, config, &mut scratch)
                })
                .expect("benchmark pairs fit the engine configuration");
            Probed {
                output: run.output,
                stats: run.stats,
                config: *config,
            }
        })
        .collect()
}

/// Sets the `systolic.*`, `model.*` and `gap.host_over_model` metrics from
/// the probed runs (all of them taken in `tracer`'s `systolic.run` spans).
/// `blocks` is the number of engine blocks the workload runs on, which
/// the modeled throughput divides the work over.
pub fn report<S>(values: &mut Values, tracer: &Tracer, runs: &[Probed<S>], blocks: usize) {
    assert!(!runs.is_empty(), "no probed runs");
    let kinfo = KernelCycleInfo {
        sym_bits: 2,
        has_walk: true,
        ii: 1,
    };
    let params = CycleModelParams::dphls();
    let n = runs.len() as f64;
    let busy = tracer.total_s("systolic.run");
    let (mut cells, mut wavefronts, mut tb_steps) = (0u64, 0u64, 0u64);
    let (mut load, mut init, mut fill, mut reduce, mut tb, mut total, mut effective) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for run in runs {
        cells += run.stats.cells;
        wavefronts += run.stats.wavefronts;
        tb_steps += run.stats.tb_steps;
        let b = alignment_cycles(&run.stats, &kinfo, &params);
        load += b.load;
        init += b.init;
        fill += b.fill;
        reduce += b.reduce;
        tb += b.traceback;
        total += b.total;
        effective += effective_cycles_per_alignment(&b, &run.config);
    }
    values.set("systolic.busy_s", busy);
    values.set("systolic.us_per_pair", busy * 1e6 / n);
    values.set("systolic.mcells_per_s", cells as f64 / busy / 1e6);
    values.set("systolic.cells", cells as f64);
    values.set("systolic.wavefronts", wavefronts as f64);
    values.set("systolic.tb_steps", tb_steps as f64);
    values.set(
        "systolic.pe_util",
        cells as f64 / (wavefronts as f64 * NPE as f64),
    );
    values.set("model.load_cycles", load as f64);
    values.set("model.init_cycles", init as f64);
    values.set("model.fill_cycles", fill as f64);
    values.set("model.reduce_cycles", reduce as f64);
    values.set("model.traceback_cycles", tb as f64);
    values.set("model.total_cycles", total as f64);
    // The scheduler's own formula: mean effective cycles over NB × NK
    // blocks at the modeled clock.
    let blocks_config = KernelConfig::new(NPE, 1, blocks);
    let mean_effective = (effective as f64 / n).round().max(1.0) as u64;
    values.set(
        "model.aps",
        throughput_aps(mean_effective, FREQ_MHZ, &blocks_config),
    );
    let modeled_us = total as f64 / n / FREQ_MHZ;
    values.set("gap.host_over_model", busy * 1e6 / n / modeled_us);
}
