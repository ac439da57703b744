//! The dp-hls benchmark: one workload per invocation, inputs made from a
//! seed, outputs checked, one JSON result line last on standard output.
//!
//! ```text
//! perfbench --workload <batch_banded|map_long> --seed <n>
//!           --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the workload untraced and prints the end-to-end
//! metrics. `--trace 1` times the calls into every layer from the
//! benchmark's side and prints the per-layer metrics (see README.md).
//! The process exits non-zero when any output differs from its reference.

mod batch;
mod engine;
mod inputs;
mod loadgen;
mod map;
mod metrics;
mod serve;
mod stats;
mod trace;

use metrics::{result_line, Tally, Values, END_TO_END, PER_LAYER, WORKLOADS};
use std::process::ExitCode;
use std::time::Duration;
use trace::Tracer;

const USAGE: &str =
    "usage: perfbench --workload <batch_banded|map_long> --seed <n> --seconds <n> --trace <0|1>";

/// Share of `--seconds` each end-to-end run of a traced run gets, and the
/// least it gets (enough open-loop requests for a p99).
const TRACED_E2E_SHARE: f64 = 0.1;
const TRACED_E2E_MIN: Duration = Duration::from_secs(2);
/// Share of `--seconds` the session probe offers load for.
const SESSION_SHARE: f64 = 0.05;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                let known = WORKLOADS.iter().find(|w| **w == value);
                workload = Some(*known.ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn untraced(args: &Args) -> (Values, Tally) {
    let budget = Duration::from_secs(args.seconds);
    match args.workload {
        "batch_banded" => batch::run(args.seed, budget),
        _ => map::end_to_end(&inputs::map_inputs(args.seed), budget, None),
    }
}

/// `latency_p50_ms` of a traced end-to-end run over that of an untraced
/// one.
fn overhead(untraced: &Values, traced: &Values) -> f64 {
    let p50 = |v: &Values| {
        v.get("latency_p50_ms")
            .expect("end-to-end runs set latency_p50_ms")
    };
    p50(traced) / p50(untraced)
}

/// The traced run: every layer probe on the seed's inputs, with the
/// `systolic.*` and `model.*` metrics taken on the batch pairs (`map_long`'s
/// path has no block engine; the served pool's engine probe, which checks
/// the served answers, goes to the span summary), and the tracing overhead
/// of this workload's end-to-end run.
fn traced(args: &Args) -> (Values, Tally) {
    let budget = Duration::from_secs(args.seconds);
    let e2e_budget = budget.mul_f64(TRACED_E2E_SHARE).max(TRACED_E2E_MIN);
    let mut tracer = Tracer::default();
    let mut values = Values::default();
    let mut tally = Tally::default();
    let batch_pairs = inputs::batch_pairs(args.seed);
    let pool = inputs::serve_pool(args.seed);
    let map_inputs = inputs::map_inputs(args.seed);

    let mut batch_engine = Tracer::default();
    let batch_runs = batch::probe_engine(&mut batch_engine, &batch_pairs);
    let batch_expected: Vec<_> = batch_runs.iter().map(|r| r.output.clone()).collect();
    let mut serve_engine = Tracer::default();
    let (_, serve_expected) = serve::probe_engine(&mut serve_engine, &pool);
    engine::report(&mut values, &batch_engine, &batch_runs, inputs::BATCH_NK);
    let batch_busy = batch_engine.total_s("systolic.run");
    tally.add(batch::probe_host(
        &mut tracer,
        &mut values,
        &batch_pairs,
        &batch_expected,
        batch_busy,
    ));

    let (session_p50, check) = serve::probe_session(
        &mut tracer,
        &mut values,
        &pool,
        &serve_expected,
        budget.mul_f64(SESSION_SHARE),
    );
    tally.add(check);
    serve::probe_protocol(&mut values, &pool);
    let (serve_traced, check, detail) =
        serve::end_to_end(&pool, &serve_expected, e2e_budget, Some(&mut tracer));
    tally.add(check);
    serve::report_server(&mut values, &serve_traced, &detail, session_p50);
    tally.add(map::probe(&mut tracer, &mut values, &map_inputs));

    let ratio = match args.workload {
        "batch_banded" => {
            let (plain, check) = batch::end_to_end(&batch_pairs, &batch_expected, e2e_budget, None);
            tally.add(check);
            let (with, check) =
                batch::end_to_end(&batch_pairs, &batch_expected, e2e_budget, Some(&mut tracer));
            tally.add(check);
            overhead(&plain, &with)
        }
        _ => {
            let (plain, check) = map::end_to_end(&map_inputs, e2e_budget, None);
            tally.add(check);
            let (with, check) = map::end_to_end(&map_inputs, e2e_budget, Some(&mut tracer));
            tally.add(check);
            overhead(&plain, &with)
        }
    };
    values.set("trace.overhead", ratio);
    eprint!(
        "engine probe, batch pairs:\n{}engine probe, served pool:\n{}other layers:\n{}",
        batch_engine.summary(),
        serve_engine.summary(),
        tracer.summary()
    );
    (values, tally)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (set, (values, tally)) = if args.trace {
        (PER_LAYER, traced(&args))
    } else {
        (END_TO_END, untraced(&args))
    };
    println!("{}", result_line(set, &values, tally));
    if tally.mismatches > 0 {
        eprintln!(
            "perfbench: {} outputs differ from their reference",
            tally.mismatches
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload map_long --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("map_long", 7, 12, true)
        );
    }

    #[test]
    fn rejects_unknown_workloads_and_flags() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed 3").is_err());
        assert!(parse("--workload map_long --trace 2").is_err());
        assert!(parse("--workload map_long --bogus 1").is_err());
    }
}
