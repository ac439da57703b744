//! Workload shapes and the inputs each workload makes from its seed.
//!
//! The shapes are fixed here, not derived from the machine: they are sized
//! for a 2-core host (two engine workers per workload, two mapper workers,
//! a generator of at most two threads) and must stay the same from commit
//! to commit for runs to be comparable.

use dphls_core::KernelConfig;
use dphls_mapper::reverse_complement;
use dphls_seq::gen::{ErrorModel, ReadSimulator};
use dphls_seq::{Base, DnaSeq};
use dphls_systolic::{CycleModelParams, Device, KernelCycleInfo};

/// Processing elements per block on every engine device.
pub const NPE: usize = 32;
/// Modeled clock of every device, MHz.
pub const FREQ_MHZ: f64 = 250.0;

/// `batch_banded`: pairs per `run_batched` call.
pub const BATCH_PAIRS: usize = 10_000;
/// `batch_banded`: query and reference length.
pub const BATCH_LEN: usize = 256;
/// `batch_banded`: band half-width.
pub const BATCH_BAND: usize = 16;
/// `batch_banded`: channels (engine workers).
pub const BATCH_NK: usize = 2;

/// Served pool: query and reference length.
pub const SERVE_LEN: usize = 128;
/// Served pool: distinct pairs, cycled through by request number.
pub const SERVE_POOL: usize = 4_096;
/// Served pool: fixed open-loop offered rate, requests per second. Set
/// once at 35–40% of the saturation rate measured on a 2-core host (17–20k
/// requests per second); held constant so runs on different commits offer
/// the same load.
pub const SERVE_RATE: f64 = 6_500.0;

/// `map_long`: reads per mapping pass.
pub const MAP_READS: usize = 2_000;
/// `map_long`: read lengths, cycled through by read number.
pub const MAP_LENGTHS: [usize; 4] = [1_000, 2_000, 3_000, 5_000];
/// `map_long`: per-base error rate (PacBio CLR mix).
pub const MAP_ERROR: f64 = 0.05;
/// `map_long`: mapping workers.
pub const MAP_WORKERS: usize = 2;
/// `map_long`: a read is recalled when it maps to its true strand within
/// this many bases of its true start.
pub const RECALL_SLACK: usize = 64;

/// A per-workload seed stream, so the workloads of one seed do not share
/// their random draws.
fn stream(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt
}

/// A DNA pair as the engines take it.
pub type Pair = (Vec<Base>, Vec<Base>);

/// Cycle-model inputs shared by every device: 2-bit DNA symbols, a
/// traceback walk, II = 1.
pub fn device(config: KernelConfig) -> Device {
    let kinfo = KernelCycleInfo {
        sym_bits: 2,
        has_walk: true,
        ii: 1,
    };
    Device::new(config, CycleModelParams::dphls(), kinfo, FREQ_MHZ)
}

/// The `batch_banded` device: NPE 32, NB 1, NK 2, banded.
pub fn batch_config() -> KernelConfig {
    KernelConfig::new(NPE, 1, BATCH_NK)
        .with_max_lengths(BATCH_LEN, BATCH_LEN)
        .with_banding(BATCH_BAND)
}

/// Reference windows of `len` bases and reads at 20% error, cut to at
/// most `len` bases.
fn pairs(sim: &mut ReadSimulator, n: usize, len: usize) -> Vec<Pair> {
    sim.read_pairs(n, len, 0.2)
        .into_iter()
        .map(|(r, q)| {
            let (mut q, mut r) = (q.into_vec(), r.into_vec());
            q.truncate(len);
            r.truncate(len);
            (q, r)
        })
        .collect()
}

/// The `batch_banded` pairs.
pub fn batch_pairs(seed: u64) -> Vec<Pair> {
    pairs(
        &mut ReadSimulator::new(stream(seed, 1)),
        BATCH_PAIRS,
        BATCH_LEN,
    )
}

/// The two kernels the serving probes send, in a fixed 3:1 mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKernel {
    /// `banded_global_linear`, three requests in four.
    Banded,
    /// `global_affine` (unbanded), one request in four.
    Affine,
}

impl ServeKernel {
    /// Both kernels.
    pub const ALL: [ServeKernel; 2] = [ServeKernel::Banded, ServeKernel::Affine];

    /// The kernel of pool entry `i`.
    pub fn of(i: usize) -> Self {
        if i % 4 == 3 {
            ServeKernel::Affine
        } else {
            ServeKernel::Banded
        }
    }

    /// The wire name the server dispatches on.
    pub fn name(self) -> &'static str {
        match self {
            ServeKernel::Banded => "banded_global_linear",
            ServeKernel::Affine => "global_affine",
        }
    }
}

/// The served pool; entry `i` is sent with [`ServeKernel::of`]`(i)`.
pub fn serve_pool(seed: u64) -> Vec<Pair> {
    pairs(
        &mut ReadSimulator::new(stream(seed, 2)),
        SERVE_POOL,
        SERVE_LEN,
    )
}

/// One simulated long read with its truth.
pub struct LongRead {
    /// FASTA id.
    pub id: String,
    /// Bases as sequenced (reverse-complemented for reverse-strand reads).
    pub bases: Vec<Base>,
    /// True reference start.
    pub start: usize,
    /// Whether the read came from the reverse strand.
    pub reverse: bool,
}

/// The `map_long` inputs: the 1 MiB simulated reference, the reads with
/// their truth, and the reads as an in-memory FASTA.
pub struct MapInputs {
    /// The reference.
    pub genome: DnaSeq,
    /// Reads with truth.
    pub reads: Vec<LongRead>,
    /// The reads as FASTA text.
    pub fasta: String,
}

/// The `map_long` inputs: half the reads reverse-complemented.
pub fn map_inputs(seed: u64) -> MapInputs {
    let mut sim = ReadSimulator::new(stream(seed, 3)).error_model(ErrorModel::PACBIO_CLR);
    let genome = sim.genome().clone();
    let reads: Vec<LongRead> = (0..MAP_READS)
        .map(|i| {
            let r = sim.simulate_read(MAP_LENGTHS[i % MAP_LENGTHS.len()], MAP_ERROR);
            let reverse = i % 2 == 1;
            let bases = if reverse {
                reverse_complement(r.read.as_slice())
            } else {
                r.read.into_vec()
            };
            LongRead {
                id: format!("r{i}"),
                bases,
                start: r.start,
                reverse,
            }
        })
        .collect();
    let mut fasta = String::new();
    for r in &reads {
        fasta.push('>');
        fasta.push_str(&r.id);
        fasta.push('\n');
        for line in r.bases.chunks(80) {
            fasta.extend(line.iter().map(|b| b.to_char()));
            fasta.push('\n');
        }
    }
    MapInputs {
        genome,
        reads,
        fasta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let (a, b, c) = (serve_pool(5), serve_pool(5), serve_pool(6));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a
            .iter()
            .all(|(q, r)| q.len() <= SERVE_LEN && r.len() == SERVE_LEN));
    }

    #[test]
    fn serve_mix_is_three_to_one() {
        let affine = (0..SERVE_POOL).filter(|&i| ServeKernel::of(i) == ServeKernel::Affine);
        assert_eq!(affine.count() * 4, SERVE_POOL);
    }
}
