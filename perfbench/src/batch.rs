//! `batch_banded`: 10k global-linear pairs through `run_batched` on a
//! banded NPE 32 × NK 2 device.

use crate::engine;
use crate::inputs::{self, Pair, BATCH_BAND, BATCH_NK, BATCH_PAIRS};
use crate::metrics::{Tally, Values};
use crate::stats::median;
use crate::trace::Tracer;
use dphls_core::{run_reference, Banding, DpOutput};
use dphls_host::{run_batched, ScheduleReport};
use dphls_kernels::{BandedGlobalLinear, LinearParams};
use std::time::{Duration, Instant};

type Kernel = BandedGlobalLinear<i16>;

/// Set-ups timed before each pass; `setup_s` is the median of all of
/// them, so its samples spread over the whole run like the passes do.
const SETUPS_PER_PASS: usize = 3;
/// Fewest timed passes a run makes, however short its budget.
const MIN_PASSES: usize = 3;

fn params() -> LinearParams<i16> {
    LinearParams::<i16>::dna()
}

/// The reference engine's outputs, computed on two threads.
fn reference_outputs(pairs: &[Pair]) -> Vec<DpOutput<i16>> {
    let band = Banding::Fixed {
        half_width: BATCH_BAND,
    };
    let p = params();
    let (a, b) = pairs.split_at(pairs.len() / 2);
    let half = |part: &[Pair]| -> Vec<DpOutput<i16>> {
        part.iter()
            .map(|(q, r)| run_reference::<Kernel>(&p, q, r, band))
            .collect()
    };
    std::thread::scope(|s| {
        let first = s.spawn(|| half(a));
        let mut second = half(b);
        let mut out = first.join().expect("reference thread panicked");
        out.append(&mut second);
        out
    })
}

/// Compares a batch's outputs with the expected ones.
fn check(
    result: &Result<ScheduleReport<i16>, dphls_host::BatchError>,
    expected: &[DpOutput<i16>],
) -> Tally {
    let mut tally = Tally {
        attempted: expected.len() as u64,
        ..Tally::default()
    };
    match result {
        Ok(report) if report.outputs.len() == expected.len() => {
            let bad = report
                .outputs
                .iter()
                .zip(expected)
                .filter(|(a, b)| a != b)
                .count() as u64;
            tally.failed = bad;
            tally.mismatches = bad;
        }
        _ => {
            tally.failed = tally.attempted;
            tally.mismatches = tally.attempted;
        }
    }
    tally
}

/// One set-up: `Device::new` plus one warm pair through `run_batched`.
fn setup_once(pairs: &[Pair]) -> f64 {
    let start = Instant::now();
    let device = inputs::device(inputs::batch_config());
    let warm = run_batched::<Kernel>(&device, &params(), &pairs[..1]).expect("warm pair runs");
    std::hint::black_box(warm);
    start.elapsed().as_secs_f64()
}

/// End-to-end run: whole-batch passes for `budget`, each after
/// [`SETUPS_PER_PASS`] timed set-ups. Every pass's outputs are checked
/// against `expected` outside the timed region. With a tracer, each pass is
/// a `batch.pass` span.
pub fn end_to_end(
    pairs: &[Pair],
    expected: &[DpOutput<i16>],
    budget: Duration,
    mut tracer: Option<&mut Tracer>,
) -> (Values, Tally) {
    let mut values = Values::default();
    let device = inputs::device(inputs::batch_config());
    let p = params();
    let mut tally = Tally::default();
    let (mut setups, mut pass_s) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while pass_s.len() < MIN_PASSES || started.elapsed() < budget {
        setups.extend((0..SETUPS_PER_PASS).map(|_| setup_once(pairs)));
        let span = tracer.as_deref_mut().map(|t| t.open("batch.pass", None));
        let start = Instant::now();
        let result = run_batched::<Kernel>(&device, &p, pairs);
        pass_s.push(start.elapsed().as_secs_f64());
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
            t.close(id);
        }
        tally.add(check(&result, expected));
    }
    let pass = median(&pass_s);
    values.set("setup_s", median(&setups));
    eprintln!(
        "batch_banded: {} passes of {BATCH_PAIRS} pairs, median {pass:.4} s, passes {pass_s:.4?}",
        pass_s.len()
    );
    // Pairs over the summed pass time: every pass weighs in, where a median
    // would keep one pass and drop the rest.
    let total_s: f64 = pass_s.iter().sum();
    values.set("ops_per_s", (BATCH_PAIRS * pass_s.len()) as f64 / total_s);
    values.set("latency_p50_ms", pass * 1e3);
    values.set("recall", tally.correct_frac());
    values.set("ok_frac", tally.ok_frac());
    (values, tally)
}

/// Untraced run of the workload.
pub fn run(seed: u64, budget: Duration) -> (Values, Tally) {
    let pairs = inputs::batch_pairs(seed);
    let expected = reference_outputs(&pairs);
    end_to_end(&pairs, &expected, budget, None)
}

/// Host-scheduler passes in the traced run.
const HOST_PASSES: usize = 3;

/// The block-engine probe over the batch pairs: single-threaded runs that
/// serve as the expected outputs of the traced run.
pub fn probe_engine(tracer: &mut Tracer, pairs: &[Pair]) -> Vec<engine::Probed<i16>> {
    let config = inputs::batch_config();
    engine::probe::<Kernel>(
        tracer,
        &params(),
        &config,
        pairs.iter().map(|(q, r)| (q.as_slice(), r.as_slice())),
    )
}

/// Traced host-scheduler probe: `run_batched` passes, each in a
/// `host.run_batched` span, checked against the single-threaded engine
/// runs. `engine_busy_s` is the single-threaded engine time of the same
/// pairs. Sets the `host.*` metrics.
pub fn probe_host(
    tracer: &mut Tracer,
    values: &mut Values,
    pairs: &[Pair],
    expected: &[DpOutput<i16>],
    engine_busy_s: f64,
) -> Tally {
    let device = inputs::device(inputs::batch_config());
    let p = params();
    let mut tally = Tally::default();
    let mut passes = Vec::new();
    for _ in 0..HOST_PASSES {
        let start = Instant::now();
        let result = tracer.span("host.run_batched", None, || {
            run_batched::<Kernel>(&device, &p, pairs)
        });
        let wall = start.elapsed().as_secs_f64();
        tally.add(check(&result, expected));
        if let Ok(report) = result {
            passes.push((wall, report.steals, report.per_channel));
        }
    }
    assert!(!passes.is_empty(), "every host pass failed");
    passes.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (wall, steals, per_channel) = &passes[passes.len() / 2];
    let mean = per_channel.iter().sum::<usize>() as f64 / per_channel.len() as f64;
    let max = per_channel.iter().copied().max().unwrap_or(0) as f64;
    values.set("host.wall_s", *wall);
    values.set(
        "host.parallel_eff",
        engine_busy_s / (wall * BATCH_NK as f64),
    );
    values.set("host.steals", *steals as f64);
    values.set("host.channel_imbalance", max / mean);
    tally
}
