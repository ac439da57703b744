//! `map_long`: PacBio-CLR-like long reads, fed as an in-memory FASTA,
//! mapped with `map_fasta` on two workers against the 1 MiB simulated
//! reference.

use crate::inputs::{MapInputs, MAP_READS, MAP_WORKERS, RECALL_SLACK};
use crate::metrics::{Tally, Values};
use crate::stats::{median, percentile, sorted};
use crate::trace::{SpanId, Tracer};
use dphls_core::Banding;
use dphls_mapper::{
    chain, map_fasta, map_read, map_streamed, reverse_complement, IndexConfig, KmerIndex,
    MapOutcome, MapStreamConfig, MapperConfig, Strand,
};
use dphls_seq::fasta::FastaStream;
use dphls_seq::Base;
use dphls_systolic::{run_xdrop, XDropRun};
use std::time::{Duration, Instant};

/// Fewest timed passes a run makes, however short its budget.
const MIN_PASSES: usize = 2;
/// Reads the single-threaded mapper probe rebuilds.
const PROBE_READS: usize = 400;
/// Band half-width of the analytic fixed-band comparison for
/// `xdrop.cells_ratio`.
const FULL_BAND: usize = 128;

fn stream_config() -> MapStreamConfig {
    MapStreamConfig {
        workers: MAP_WORKERS,
        ..MapStreamConfig::default()
    }
}

/// One set-up: `KmerIndex::build` over the reference, timed.
fn build_index(inputs: &MapInputs) -> (f64, KmerIndex) {
    let start = Instant::now();
    let index = KmerIndex::build(&inputs.genome, IndexConfig::default());
    (start.elapsed().as_secs_f64(), index)
}

/// One timed pass of the FASTA through `map_fasta`: when the pipeline
/// pulled each record and emitted its outcome (ns after `origin`).
struct Pass {
    origin: Instant,
    elapsed_s: f64,
    outcomes: Vec<MapOutcome>,
    pulled: Vec<u64>,
    emitted: Vec<u64>,
}

impl Pass {
    fn run(inputs: &MapInputs, index: &KmerIndex) -> Pass {
        let mut pulled = vec![0u64; MAP_READS];
        let mut emitted = vec![0u64; MAP_READS];
        let mut outcomes = Vec::with_capacity(MAP_READS);
        let origin = Instant::now();
        let records = FastaStream::new(inputs.fasta.as_bytes())
            .lenient()
            .zip(pulled.iter_mut())
            .map(|(rec, at)| {
                *at = origin.elapsed().as_nanos() as u64;
                rec
            });
        map_fasta(
            index,
            &inputs.genome,
            records,
            &MapperConfig::default(),
            stream_config(),
            |idx, out| {
                emitted[idx] = origin.elapsed().as_nanos() as u64;
                outcomes.push(out);
            },
        );
        Pass {
            origin,
            elapsed_s: origin.elapsed().as_secs_f64(),
            outcomes,
            pulled,
            emitted,
        }
    }

    /// Each read's latency in ms, from pull to emission.
    fn latencies_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.pulled
            .iter()
            .zip(&self.emitted)
            .map(|(&p, &e)| e.saturating_sub(p) as f64 / 1e6)
    }
}

/// Reads mapped to their true strand within [`RECALL_SLACK`] of their
/// true start.
fn recalled(inputs: &MapInputs, outcomes: &[MapOutcome]) -> usize {
    inputs
        .reads
        .iter()
        .zip(outcomes)
        .filter(|(read, out)| {
            out.mapping().is_some_and(|m| {
                (m.strand == Strand::Reverse) == read.reverse
                    && m.locus.abs_diff(read.start) <= RECALL_SLACK
            })
        })
        .count()
}

/// End-to-end run: mapping passes for `budget`, each with an index built
/// (and timed for `setup_s`) just before it. The first pass's outcomes are
/// the reference every later pass must repeat, and recall is scored on
/// them against the simulator's truth. With a tracer, each read is a
/// `map.read` span from pull to emission.
pub fn end_to_end(
    inputs: &MapInputs,
    budget: Duration,
    mut tracer: Option<&mut Tracer>,
) -> (Values, Tally) {
    let mut values = Values::default();
    let mut tally = Tally::default();
    let mut first: Option<Vec<MapOutcome>> = None;
    let (mut setups, mut pass_s, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while pass_s.len() < MIN_PASSES || started.elapsed() < budget {
        let (setup, index) = build_index(inputs);
        setups.push(setup);
        let pass = Pass::run(inputs, &index);
        if let Some(t) = tracer.as_deref_mut() {
            let at = |ns| pass.origin + Duration::from_nanos(ns);
            for (&p, &e) in pass.pulled.iter().zip(&pass.emitted) {
                t.record("map.read", at(p), at(e));
            }
        }
        pass_s.push(pass.elapsed_s);
        latencies.extend(pass.latencies_ms());
        let outcomes = pass.outcomes;
        let quarantined = outcomes
            .iter()
            .filter(|o| matches!(o, MapOutcome::Quarantined { .. }))
            .count() as u64;
        let mismatched = match &first {
            None => u64::from(outcomes.len() != MAP_READS),
            Some(reference) => u64::from(outcomes != *reference),
        } * MAP_READS as u64;
        tally.add(Tally {
            attempted: MAP_READS as u64,
            failed: quarantined.max(mismatched),
            mismatches: mismatched,
        });
        first.get_or_insert(outcomes);
    }
    let first = first.expect("at least one pass");
    let recall = recalled(inputs, &first) as f64 / MAP_READS as f64;
    let latencies = sorted(latencies);
    let p50 = percentile(&latencies, 0.5).expect("thousands of reads per pass");
    eprintln!(
        "map_long: {} passes of {MAP_READS} reads, median pass {:.3} s, read latency p50 {p50:.3} ms over {} reads, recall {recall:.4}, passes {pass_s:.4?}",
        pass_s.len(),
        median(&pass_s),
        latencies.len()
    );
    values.set("setup_s", median(&setups));
    let total_s: f64 = pass_s.iter().sum();
    values.set("ops_per_s", (MAP_READS * pass_s.len()) as f64 / total_s);
    values.set("latency_p50_ms", p50);
    values.set("recall", recall);
    values.set("ok_frac", tally.ok_frac());
    (values, tally)
}

/// What the single-threaded rebuild of `map_read` counted.
#[derive(Default)]
struct Counts {
    seed_hits: u64,
    chain_anchors: u64,
    extended: u64,
    terminated: u64,
    cells: u64,
    fullband_cells: u64,
}

/// `map_read` rebuilt from its public steps, each step in a span under a
/// `mapper.read` root.
fn traced_map_read(
    tracer: &mut Tracer,
    root: SpanId,
    index: &KmerIndex,
    inputs: &MapInputs,
    read: &[Base],
    cfg: &MapperConfig,
    counts: &mut Counts,
) -> Option<(usize, Strand, XDropRun)> {
    let root = Some(root);
    let fwd_seeds = tracer.span("mapper.seed", root, || index.seeds(read));
    let rc = tracer.span("mapper.seed", root, || reverse_complement(read));
    let rc_seeds = tracer.span("mapper.seed", root, || index.seeds(&rc));
    counts.seed_hits += (fwd_seeds.len() + rc_seeds.len()) as u64;
    let fwd = tracer.span("mapper.chain", root, || {
        chain(&fwd_seeds, cfg.chain_band, cfg.min_anchors)
    });
    let rev = tracer.span("mapper.chain", root, || {
        chain(&rc_seeds, cfg.chain_band, cfg.min_anchors)
    });
    let (best, strand, oriented): (_, _, &[Base]) = match (fwd, rev) {
        (Some(f), Some(r)) if r.score() > f.score() => (r, Strand::Reverse, &rc),
        (Some(f), _) => (f, Strand::Forward, read),
        (None, Some(r)) => (r, Strand::Reverse, &rc),
        (None, None) => return None,
    };
    counts.chain_anchors += best.score() as u64;
    let genome = &inputs.genome;
    let locus = best.ref_start.min(genome.len().saturating_sub(1));
    let span = oriented.len() + oriented.len() / 8 + cfg.window_slack;
    let width = span.min(genome.len() - locus);
    let run = tracer.span("mapper.extend", root, || {
        let window = genome.window(locus, width);
        run_xdrop(
            oriented,
            window.as_slice(),
            |a, b| cfg.params.substitution(a == b),
            cfg.params.gap,
            &cfg.xdrop,
        )
    });
    counts.extended += 1;
    counts.terminated += u64::from(run.terminated);
    counts.cells += run.cells;
    let band = Banding::Fixed {
        half_width: FULL_BAND,
    };
    counts.fullband_cells += (1..=oriented.len())
        .map(|i| band.cells_in_row(i, width) as u64)
        .sum::<u64>();
    Some((locus, strand, run))
}

/// Traced mapper probe: the index build, the FASTA parse, a
/// single-threaded rebuild of `map_read` on the first [`PROBE_READS`]
/// reads (each checked equal to `map_read`), and the same reads through
/// `map_streamed` on two workers (checked equal too). Sets the `mapper.*`,
/// `xdrop.*`, `index.*` and `fasta.*` metrics.
pub fn probe(tracer: &mut Tracer, values: &mut Values, inputs: &MapInputs) -> Tally {
    let index = tracer.span("index.build", None, || {
        KmerIndex::build(&inputs.genome, IndexConfig::default())
    });
    values.set("index.buckets", index.buckets() as f64);
    values.set("index.masked_buckets", index.masked_buckets() as f64);

    let parsed = tracer.span("fasta.parse", None, || {
        FastaStream::new(inputs.fasta.as_bytes()).collect::<Result<Vec<_>, _>>()
    });
    values.set("fasta.parse_s", tracer.total_s("fasta.parse"));
    let mut tally = Tally {
        attempted: MAP_READS as u64,
        ..Tally::default()
    };
    let parsed_ok = parsed.is_ok_and(|recs| {
        recs.len() == MAP_READS
            && recs.iter().zip(&inputs.reads).all(|(rec, read)| {
                rec.dna()
                    .is_ok_and(|d| d.as_slice() == read.bases.as_slice())
            })
    });
    if !parsed_ok {
        tally.failed += MAP_READS as u64;
        tally.mismatches += MAP_READS as u64;
    }

    let cfg = MapperConfig::default();
    let reads = &inputs.reads[..PROBE_READS];
    let mut counts = Counts::default();
    let mut rebuilt = Vec::with_capacity(PROBE_READS);
    for read in reads {
        let root = tracer.open("mapper.read", None);
        let got = traced_map_read(tracer, root, &index, inputs, &read.bases, &cfg, &mut counts);
        tracer.close(root);
        rebuilt.push(got);
    }
    let mut probe_tally = Tally {
        attempted: 2 * PROBE_READS as u64,
        ..Tally::default()
    };
    for (read, got) in reads.iter().zip(&rebuilt) {
        if map_read(&index, &inputs.genome, &read.bases, &cfg) != *got {
            probe_tally.failed += 1;
            probe_tally.mismatches += 1;
        }
    }

    let source = reads
        .iter()
        .map(|r| Ok::<_, String>((r.id.clone(), r.bases.clone())));
    let mut streamed = Vec::with_capacity(PROBE_READS);
    let start = Instant::now();
    let report = map_streamed(
        &index,
        &inputs.genome,
        source,
        &cfg,
        stream_config(),
        |_, out| streamed.push(out),
    );
    let wall = start.elapsed().as_secs_f64();
    tracer.record(
        "mapper.map_streamed",
        start,
        start + Duration::from_secs_f64(wall),
    );
    for (out, got) in streamed.iter().zip(&rebuilt) {
        let same = match (out, got) {
            (MapOutcome::Mapped(m), Some((locus, strand, run))) => {
                m.locus == *locus
                    && m.strand == *strand
                    && m.score == run.score
                    && m.cells == run.cells
            }
            (MapOutcome::Unmapped { .. }, None) => true,
            _ => false,
        };
        if !same {
            probe_tally.failed += 1;
            probe_tally.mismatches += 1;
        }
    }
    if streamed.len() != PROBE_READS {
        probe_tally.failed += 1;
        probe_tally.mismatches += 1;
    }
    tally.add(probe_tally);

    let busy = tracer.total_s("mapper.read");
    let extend = tracer.total_s("mapper.extend");
    values.set("mapper.seed_s", tracer.total_s("mapper.seed"));
    values.set("mapper.chain_s", tracer.total_s("mapper.chain"));
    values.set("mapper.extend_s", extend);
    values.set("mapper.extend_share", extend / busy);
    values.set("mapper.seed_hits", counts.seed_hits as f64);
    values.set("mapper.chain_anchors", counts.chain_anchors as f64);
    values.set("xdrop.cells", counts.cells as f64);
    values.set("xdrop.mcells_per_s", counts.cells as f64 / extend / 1e6);
    values.set(
        "xdrop.terminated_frac",
        counts.terminated as f64 / counts.extended.max(1) as f64,
    );
    values.set(
        "xdrop.cells_ratio",
        counts.cells as f64 / counts.fullband_cells.max(1) as f64,
    );
    values.set("mapper.parallel_eff", busy / (wall * MAP_WORKERS as f64));
    values.set(
        "mapper.reorder_high_water",
        report.reorder_high_water as f64,
    );
    tally
}
