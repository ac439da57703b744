//! The serving probes of the traced run: an in-process `Server` on
//! loopback, one kernel session per kernel (NPE 32, NK 1 each), driven over
//! one connection at a time by the benchmark's own generator with a 3:1
//! mix of banded global-linear and unbanded global-affine pairs of length
//! 128.
//!
//! The run saturates the server back to back, then offers the fixed rate
//! [`SERVE_RATE`] open loop and times each request from its due time.

use crate::engine::{self, Probed};
use crate::inputs::{self, Pair, ServeKernel, NPE, SERVE_LEN, SERVE_POOL, SERVE_RATE};
use crate::loadgen::{self, open_loop_requests};
use crate::metrics::{Tally, Values};
use crate::stats::{median, percentile, sorted};
use crate::trace::Tracer;
use dphls_core::{DpOutput, KernelConfig, LaneKernel};
use dphls_host::{ResilienceConfig, StreamConfig, StreamSession};
use dphls_kernels::{
    default_banding, AffineParams, BandedGlobalLinear, GlobalAffine, LinearParams,
};
use dphls_serve::protocol::{
    decode_payload, encode, read_frame, write_frame, ErrorCode, ErrorFrame, Frame, Request,
    Response, DEFAULT_MAX_FRAME,
};
use dphls_serve::{Server, ServerConfig, ServerStats};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

type Banded = BandedGlobalLinear<i16>;
type Affine = GlobalAffine<i16>;

/// Shares of a run's budget: warm-up, then saturation and open loop,
/// which alternate over [`ROUNDS`] rounds on a fresh connection each.
const WARM_SHARE: f64 = 0.05;
const SATURATION_SHARE: f64 = 0.45;
const OPEN_SHARE: f64 = 0.5;
const ROUNDS: u32 = 20;
/// A saturation round's rate skips this share of the round as ramp-up.
const RAMP_SHARE: f64 = 0.2;

/// What a response must carry: a direct engine run's score, best cell and
/// cell count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    score: i64,
    best_cell: (u32, u32),
    cells: u64,
}

impl From<&Response> for Answer {
    fn from(r: &Response) -> Self {
        Self {
            score: r.score,
            best_cell: r.best_cell,
            cells: r.cells,
        }
    }
}

impl From<&DpOutput<i16>> for Answer {
    fn from(out: &DpOutput<i16>) -> Self {
        Self {
            score: i64::from(out.best_score),
            best_cell: (out.best_cell.0 as u32, out.best_cell.1 as u32),
            cells: out.cells_computed,
        }
    }
}

/// The engine configuration the server builds for `kind`.
fn kernel_config(kind: ServeKernel) -> KernelConfig {
    let config = KernelConfig::new(NPE, 1, 1).with_max_lengths(SERVE_LEN, SERVE_LEN);
    match default_banding(kind.name()) {
        Some(half_width) => config.with_banding(half_width),
        None => config,
    }
}

fn server_config() -> ServerConfig {
    ServerConfig {
        npe: NPE,
        nb: 1,
        nk: 1,
        max_len: SERVE_LEN,
        ..ServerConfig::default()
    }
}

fn indices_of(kind: ServeKernel) -> impl Iterator<Item = usize> {
    (0..SERVE_POOL).filter(move |&i| ServeKernel::of(i) == kind)
}

/// The block-engine probe over the pool (both kernels, single-threaded,
/// one `systolic.run` span per call). Returns the probed runs and the
/// answers they imply, in pool order.
pub fn probe_engine(tracer: &mut Tracer, pool: &[Pair]) -> (Vec<Probed<i16>>, Vec<Answer>) {
    let pairs_of = |kind| indices_of(kind).map(|i| (pool[i].0.as_slice(), pool[i].1.as_slice()));
    let banded = engine::probe::<Banded>(
        tracer,
        &LinearParams::dna(),
        &kernel_config(ServeKernel::Banded),
        pairs_of(ServeKernel::Banded),
    );
    let affine = engine::probe::<Affine>(
        tracer,
        &AffineParams::dna(),
        &kernel_config(ServeKernel::Affine),
        pairs_of(ServeKernel::Affine),
    );
    let mut answers = vec![None; pool.len()];
    for (i, run) in indices_of(ServeKernel::Banded)
        .zip(&banded)
        .chain(indices_of(ServeKernel::Affine).zip(&affine))
    {
        answers[i] = Some(Answer::from(&run.output));
    }
    let answers = answers
        .into_iter()
        .map(|a| a.expect("every pool entry probed"))
        .collect();
    (banded.into_iter().chain(affine).collect(), answers)
}

fn request(pool: &[Pair], k: u64) -> Request {
    let i = k as usize % SERVE_POOL;
    Request {
        kernel: ServeKernel::of(i).name().to_owned(),
        query: pool[i].0.clone(),
        reference: pool[i].1.clone(),
    }
}

/// Checks one answer frame: the response to request `k` carrying `want`.
/// An error frame is a failure; anything else is a mismatch.
fn verdict(frame: &Frame, k: u64, want: Answer) -> Tally {
    let (failed, mismatches) = match frame {
        Frame::Response(r) if r.seq == k && Answer::from(r) == want => (0, 0),
        Frame::Error(e) if e.seq == k => (1, 0),
        _ => (1, 1),
    };
    Tally {
        attempted: 1,
        failed,
        mismatches,
    }
}

/// Checks the answer frames of one connection, request `k` being pool
/// entry `k % SERVE_POOL`.
fn check(answers: &[Frame], expected: &[Answer]) -> Tally {
    let mut tally = Tally::default();
    for (k, frame) in (0u64..).zip(answers) {
        tally.add(verdict(frame, k, expected[k as usize % SERVE_POOL]));
    }
    tally
}

/// One set-up: bind, then one request per kernel answered. Returns its
/// time, the server and the check of the two answers.
fn setup_once(pool: &[Pair], expected: &[Answer]) -> (f64, Server, Tally) {
    let start = Instant::now();
    let server = Server::bind("127.0.0.1:0", server_config()).expect("bind a loopback server");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect to the server");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    // Pool entries 0 and 3 are the first of each kernel.
    let firsts = [0u64, 3];
    for &i in &firsts {
        write_frame(&mut stream, &Frame::Request(request(pool, i))).expect("send a set-up request");
    }
    let answers: Vec<Frame> = firsts
        .iter()
        .map(|_| {
            read_frame(&mut stream, DEFAULT_MAX_FRAME)
                .expect("read a set-up answer")
                .expect("the server answers")
        })
        .collect();
    let elapsed = start.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    for ((k, frame), &i) in (0u64..).zip(&answers).zip(&firsts) {
        tally.add(verdict(frame, k, expected[i as usize]));
    }
    (elapsed, server, tally)
}

/// What the end-to-end run saw beyond its end-to-end metrics.
pub struct ServeDetail {
    /// Open-loop latencies from the due time, all rounds, sorted (ms).
    pub latencies_ms: Vec<f64>,
    /// How late the generator sent, all open-loop rounds, sorted (ms).
    pub lateness_ms: Vec<f64>,
    /// Statistics of the measured server, at shutdown.
    pub stats: ServerStats,
}

/// End-to-end run: set-up, warm-up, then rounds of saturation and of the
/// fixed-rate open loop, each round after one more timed set-up.
/// `ops_per_s` is the median saturation rate and `latency_p50_ms` the
/// median open-loop p50 over the rounds, so a disturbance confined to one
/// round moves neither. Answers are checked
/// after each phase, outside its timing. With a tracer, every open-loop
/// request is recorded as a `serve.request` span from its due time to its
/// answer.
pub fn end_to_end(
    pool: &[Pair],
    expected: &[Answer],
    budget: Duration,
    mut tracer: Option<&mut Tracer>,
) -> (Values, Tally, ServeDetail) {
    let mut values = Values::default();
    let mut tally = Tally::default();
    let (first_setup, server, setup_check) = setup_once(pool, expected);
    tally.add(setup_check);
    let mut setups = vec![first_setup];
    let addr = server.local_addr();
    let drive = |duration, rate| {
        loadgen::drive(addr, duration, rate, |k| request(pool, k)).expect("load generator run")
    };

    let warm = drive(budget.mul_f64(WARM_SHARE), None);
    tally.add(check(&warm.answers, expected));
    let saturation_len = budget.mul_f64(SATURATION_SHARE) / ROUNDS;
    let open_len = budget.mul_f64(OPEN_SHARE) / ROUNDS;
    let (mut rates, mut p50s) = (Vec::new(), Vec::new());
    let (mut latencies, mut lateness) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        // One more set-up per round, so `setup_s` samples the whole run.
        let (t, spare, setup_check) = setup_once(pool, expected);
        spare.shutdown();
        setups.push(t);
        tally.add(setup_check);

        let saturation = drive(saturation_len, None);
        tally.add(check(&saturation.answers, expected));
        let end = saturation_len.as_nanos() as u64;
        rates.push(saturation.answer_rate((end as f64 * RAMP_SHARE) as u64, end));

        let open = drive(open_len, Some(SERVE_RATE));
        tally.add(check(&open.answers, expected));
        assert_eq!(
            open.answers.len() as u64,
            open_loop_requests(open_len, SERVE_RATE),
            "every due request was sent and answered"
        );
        let round = sorted(open.latencies_ms());
        p50s.push(
            percentile(&round, 0.5).expect("an open-loop round has enough samples for a median"),
        );
        latencies.extend(round);
        lateness.extend(open.lateness_ms());
        if let Some(t) = tracer.as_deref_mut() {
            let at = |ns| open.origin + Duration::from_nanos(ns);
            for (&due, &got) in open.due.iter().zip(&open.received) {
                t.record("serve.request", at(due), at(got));
            }
        }
    }
    let stats = server.shutdown();
    values.set("setup_s", median(&setups));
    values.set("ops_per_s", median(&rates));
    values.set("latency_p50_ms", median(&p50s));
    values.set("recall", tally.correct_frac());
    values.set("ok_frac", tally.ok_frac());
    let (latencies, lateness) = (sorted(latencies), sorted(lateness));
    eprintln!(
        "serve: saturation rounds {rates:.0?} rps; open loop at {SERVE_RATE} rps: round p50s {p50s:.4?} ms, \
         p99 {:?} ms over {} samples, generator late p99 {:?} ms",
        percentile(&latencies, 0.99),
        latencies.len(),
        percentile(&lateness, 0.99),
    );
    let detail = ServeDetail {
        latencies_ms: latencies,
        lateness_ms: lateness,
        stats,
    };
    (values, tally, detail)
}

/// Per-session record of when each output reached the sink, and what it
/// was.
type SinkLog = Arc<Mutex<Vec<(u64, Option<Answer>)>>>;

fn spawn_session<K>(
    kind: ServeKernel,
    params: K::Params,
    origin: Instant,
    log: SinkLog,
) -> StreamSession<K>
where
    K: LaneKernel<Score = i16> + 'static,
    K::Sym: Send + 'static,
    K::Params: Send + 'static,
{
    StreamSession::<K>::spawn(
        inputs::device(kernel_config(kind)),
        params,
        StreamConfig::default(),
        ResilienceConfig::standard(),
        move |idx, slot| {
            let at = origin.elapsed().as_nanos() as u64;
            log.lock().expect("sink log mutex")[idx] = (at, slot.ok().as_ref().map(Answer::from));
        },
    )
}

/// Session probe: the pool fed to bare `StreamSession`s (one per kernel,
/// configured as the server's) at the fixed rate for `duration`, from one
/// thread. Sets the `session.*` metrics; returns the turnaround p50 (ms)
/// and the check of every output.
pub fn probe_session(
    tracer: &mut Tracer,
    values: &mut Values,
    pool: &[Pair],
    expected: &[Answer],
    duration: Duration,
) -> (f64, Tally) {
    let n = open_loop_requests(duration, SERVE_RATE);
    let count = |kind| {
        (0..n)
            .filter(|&k| ServeKernel::of(k as usize % SERVE_POOL) == kind)
            .count()
    };
    let origin = Instant::now();
    let logs: Vec<SinkLog> = ServeKernel::ALL
        .iter()
        .map(|&kind| Arc::new(Mutex::new(vec![(0, None); count(kind)])))
        .collect();
    let banded = spawn_session::<Banded>(
        ServeKernel::Banded,
        LinearParams::dna(),
        origin,
        Arc::clone(&logs[0]),
    );
    let affine = spawn_session::<Affine>(
        ServeKernel::Affine,
        AffineParams::dna(),
        origin,
        Arc::clone(&logs[1]),
    );
    let since = || origin.elapsed().as_nanos() as u64;
    let mut routes = Vec::with_capacity(n as usize);
    let mut submitted_at = Vec::with_capacity(n as usize);
    for k in 0..n {
        let due = loadgen::due_ns(k, SERVE_RATE);
        let now = since();
        if due > now {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
        let i = k as usize % SERVE_POOL;
        let (q, r) = pool[i].clone();
        let kind = ServeKernel::of(i);
        let start = since();
        let id = tracer.open("session.submit", None);
        let idx = match kind {
            ServeKernel::Banded => banded.submit(q, r),
            ServeKernel::Affine => affine.submit(q, r),
        }
        .expect("session accepts while open");
        tracer.close(id);
        routes.push((kind, idx, i));
        submitted_at.push(start);
    }
    let reports = [banded.close(), affine.close()].map(|r| r.expect("session drains cleanly"));
    let logs: Vec<Vec<(u64, Option<Answer>)>> = logs
        .iter()
        .map(|l| std::mem::take(&mut *l.lock().expect("sink log mutex")))
        .collect();
    let mut tally = Tally {
        attempted: n,
        ..Tally::default()
    };
    let mut turnaround = Vec::with_capacity(n as usize);
    for (&(kind, idx, i), &start) in routes.iter().zip(&submitted_at) {
        let (at, answer) = logs[kind as usize][idx];
        match answer {
            Some(a) if a == expected[i] => {}
            Some(_) => {
                tally.failed += 1;
                tally.mismatches += 1;
            }
            None => tally.failed += 1,
        }
        turnaround.push(at.saturating_sub(start) as f64 / 1e6);
    }
    let p50 = percentile(&sorted(turnaround), 0.5).expect("session probe has enough samples");
    values.set("session.turnaround_p50_ms", p50);
    values.set("session.submit_block_s", tracer.total_s("session.submit"));
    values.set(
        "session.reorder_high_water",
        reports
            .iter()
            .map(|r| r.reorder_high_water)
            .max()
            .unwrap_or(0) as f64,
    );
    values.set(
        "session.resident_high_water",
        reports
            .iter()
            .map(|r| r.resident_high_water)
            .max()
            .unwrap_or(0) as f64,
    );
    (p50, tally)
}

/// Mean nanoseconds of `f` over `reps` calls.
fn ns_per_call<T>(reps: u32, mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    start.elapsed().as_nanos() as f64 / f64::from(reps)
}

/// Wire-codec probe: encode and decode time per frame type, and the mean
/// request size on the wire (length prefix included).
pub fn probe_protocol(values: &mut Values, pool: &[Pair]) {
    const REPS: u32 = 20_000;
    let frames = [
        ("request", Frame::Request(request(pool, 0))),
        (
            "response",
            Frame::Response(Response {
                seq: 1 << 20,
                score: -123,
                best_cell: (128, 128),
                cells: 16_384,
            }),
        ),
        (
            "error",
            Frame::Error(ErrorFrame {
                seq: 1 << 20,
                code: ErrorCode::Quarantined,
                message: "pair 1048576 quarantined after 3 attempt(s): kernel error".into(),
            }),
        ),
    ];
    for (name, frame) in &frames {
        let encode_ns = ns_per_call(REPS, || encode(std::hint::black_box(frame)));
        let payload = encode(frame);
        let decode_ns = ns_per_call(REPS, || {
            decode_payload(std::hint::black_box(&payload)).expect("own frames decode")
        });
        let (enc, dec) = match *name {
            "request" => ("protocol.encode_ns.request", "protocol.decode_ns.request"),
            "response" => ("protocol.encode_ns.response", "protocol.decode_ns.response"),
            _ => ("protocol.encode_ns.error", "protocol.decode_ns.error"),
        };
        values.set(enc, encode_ns);
        values.set(dec, decode_ns);
    }
    let bytes: usize = (0..SERVE_POOL as u64)
        .map(|k| 4 + encode(&Frame::Request(request(pool, k))).len())
        .sum();
    values.set("protocol.bytes_per_req", bytes as f64 / SERVE_POOL as f64);
}

/// Sets the `serve.*` and `load.*` metrics from a traced end-to-end run
/// and the session probe's turnaround.
pub fn report_server(values: &mut Values, e2e: &Values, detail: &ServeDetail, session_p50_ms: f64) {
    let p50 = e2e
        .get("latency_p50_ms")
        .expect("end-to-end run sets latency_p50_ms");
    values.set("serve.overhead_p50_ms", p50 - session_p50_ms);
    let p99 = percentile(&detail.latencies_ms, 0.99)
        .expect("open loop sized for a p99 with 10 samples beyond it");
    values.set("serve.latency_p99_ms", p99);
    values.set("serve.latency_samples", detail.latencies_ms.len() as f64);
    values.set("serve.requests", detail.stats.requests as f64);
    values.set("serve.error_frames", detail.stats.error_frames as f64);
    let late =
        percentile(&detail.lateness_ms, 0.99).expect("lateness has as many samples as latency");
    values.set("load.late_p99_ms", late);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(seq: u64, score: i64) -> Frame {
        Frame::Response(Response {
            seq,
            score,
            best_cell: (3, 4),
            cells: 12,
        })
    }

    #[test]
    fn verdict_separates_failures_from_mismatches() {
        let want = Answer {
            score: 7,
            best_cell: (3, 4),
            cells: 12,
        };
        let tally = |frame: &Frame, k| {
            let t = verdict(frame, k, want);
            (t.attempted, t.failed, t.mismatches)
        };
        assert_eq!(tally(&response(5, 7), 5), (1, 0, 0));
        assert_eq!(tally(&response(5, 8), 5), (1, 1, 1));
        assert_eq!(tally(&response(6, 7), 5), (1, 1, 1));
        let quarantined = Frame::Error(ErrorFrame {
            seq: 5,
            code: ErrorCode::Quarantined,
            message: String::new(),
        });
        assert_eq!(tally(&quarantined, 5), (1, 1, 0));
    }
}
