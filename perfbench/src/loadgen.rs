//! The benchmark's own load generator: one connection, one sender thread
//! plus the calling thread as receiver, speaking only
//! `dphls_serve::protocol::{write_frame, read_frame}`.
//!
//! In open-loop mode request `k` is *due* at `k / rate` seconds after the
//! run's origin, whatever happened to earlier requests, and its latency is
//! timed from that due time. A stall anywhere (server, socket or the
//! generator itself) therefore shows in the latency of every request that
//! was due during it, and the generator reports how late it sent.
//! Back-to-back mode sends as fast as TCP backpressure allows, with at
//! most [`MAX_OUTSTANDING`] requests unanswered; there a request is due
//! when it is sent.

use dphls_serve::protocol::{read_frame, write_frame, Frame, Request, DEFAULT_MAX_FRAME};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Unanswered requests a back-to-back run allows. Far above what the
/// server holds in its sessions (a few hundred per kernel), so the server
/// stays saturated, yet small enough that the socket buffers do not queue
/// seconds of work that must drain after the run.
pub const MAX_OUTSTANDING: usize = 2_048;

/// Due time of request `k` at `rate` requests per second, in nanoseconds
/// after the origin. Computed from `k` (never accumulated), so rounding
/// does not drift over a long run.
pub fn due_ns(k: u64, rate: f64) -> u64 {
    assert!(rate > 0.0, "offered rate must be positive");
    (k as f64 * 1e9 / rate).round() as u64
}

/// Requests an open-loop run of `duration` at `rate` sends: every `k` whose
/// due time falls inside the run.
pub fn open_loop_requests(duration: Duration, rate: f64) -> u64 {
    let end = duration.as_nanos() as u64;
    (0..)
        .find(|&k| due_ns(k, rate) >= end)
        .expect("unbounded search")
}

/// How late a request was sent: zero if it went out on or before its due
/// time.
pub fn lateness_ns(due: u64, sent: u64) -> u64 {
    sent.saturating_sub(due)
}

/// Latency of a request, timed from when it was due.
pub fn latency_ns(due: u64, received: u64) -> u64 {
    received.saturating_sub(due)
}

/// Everything one generator run observed, indexed by request number `k`
/// (equal to the per-connection sequence number the server assigns).
/// Times are nanoseconds after `origin`.
pub struct LoadRun {
    /// When the run started; request 0 is due here.
    pub origin: Instant,
    /// Due time of each request.
    pub due: Vec<u64>,
    /// When the sender began writing each request.
    pub sent: Vec<u64>,
    /// When each answer had been read in full.
    pub received: Vec<u64>,
    /// The answer frames, in request order.
    pub answers: Vec<Frame>,
}

impl LoadRun {
    /// Latency of every request from its due time, in milliseconds.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.due
            .iter()
            .zip(&self.received)
            .map(|(&d, &r)| latency_ns(d, r) as f64 / 1e6)
            .collect()
    }

    /// How late every request was sent, in milliseconds.
    pub fn lateness_ms(&self) -> Vec<f64> {
        self.due
            .iter()
            .zip(&self.sent)
            .map(|(&d, &s)| lateness_ns(d, s) as f64 / 1e6)
            .collect()
    }

    /// Answers per second over `[from, to)` nanoseconds after the origin.
    pub fn answer_rate(&self, from: u64, to: u64) -> f64 {
        assert!(to > from, "empty rate window");
        let n = self
            .received
            .iter()
            .filter(|&&t| t >= from && t < to)
            .count();
        n as f64 * 1e9 / (to - from) as f64
    }
}

fn since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// Drives one connection to `addr` for `duration`: open loop at `rate`
/// requests per second, or back to back when `rate` is `None`. Request
/// `k` carries `request(k)`. Returns once every sent request is answered.
///
/// # Errors
///
/// Any socket or framing error, or a server that ends the exchange early.
pub fn drive(
    addr: SocketAddr,
    duration: Duration,
    rate: Option<f64>,
    request: impl Fn(u64) -> Request + Sync,
) -> io::Result<LoadRun> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut input = BufReader::new(stream.try_clone()?);
    // Requests the sender has committed to sending; the receiver only
    // blocks on a read while an answer is owed, so it never waits on a
    // request that will not come.
    let committed = AtomicUsize::new(0);
    let answered = AtomicUsize::new(0);
    let finished = AtomicBool::new(false);
    let receiver_failed = AtomicBool::new(false);
    let end = duration.as_nanos() as u64;
    let planned = rate.map(|r| open_loop_requests(duration, r));
    let origin = Instant::now();

    std::thread::scope(|scope| {
        let sender = scope.spawn(|| -> io::Result<(Vec<u64>, Vec<u64>)> {
            let mut out = BufWriter::new(stream);
            let (mut due, mut sent) = (Vec::new(), Vec::new());
            let result = (|| {
                for k in 0u64.. {
                    let due_at = match (rate, planned) {
                        (Some(r), Some(n)) if k < n => due_ns(k, r),
                        (None, _) if since(origin) < end => {
                            while k as usize >= answered.load(Ordering::SeqCst) + MAX_OUTSTANDING {
                                if receiver_failed.load(Ordering::SeqCst) {
                                    return Ok(());
                                }
                                out.flush()?;
                                std::thread::sleep(Duration::from_micros(20));
                            }
                            since(origin)
                        }
                        _ => break,
                    };
                    committed.store(k as usize + 1, Ordering::SeqCst);
                    let now = since(origin);
                    if due_at > now {
                        std::thread::sleep(Duration::from_nanos(due_at - now));
                    }
                    due.push(due_at);
                    sent.push(since(origin));
                    write_frame(&mut out, &Frame::Request(request(k)))?;
                    if rate.is_some() {
                        out.flush()?;
                    }
                }
                out.flush()
            })();
            finished.store(true, Ordering::SeqCst);
            result.map(|()| (due, sent))
        });

        let mut received = Vec::new();
        let mut answers = Vec::new();
        let mut failure = None;
        loop {
            if received.len() < committed.load(Ordering::SeqCst) {
                match read_frame(&mut input, DEFAULT_MAX_FRAME) {
                    Ok(Some(frame)) => {
                        received.push(since(origin));
                        answers.push(frame);
                        answered.store(received.len(), Ordering::SeqCst);
                    }
                    Ok(None) => {
                        failure = Some(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "server ended the exchange early",
                        ));
                        break;
                    }
                    Err(e) => {
                        failure = Some(io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
                        break;
                    }
                }
            } else if finished.load(Ordering::SeqCst)
                && received.len() == committed.load(Ordering::SeqCst)
            {
                break;
            } else {
                std::thread::sleep(Duration::from_micros(20));
            }
        }
        if failure.is_some() {
            // Unblock a sender waiting for answers or stuck on backpressure
            // before joining it.
            receiver_failed.store(true, Ordering::SeqCst);
            let _ = input.get_ref().shutdown(std::net::Shutdown::Both);
        }
        let sent = sender.join().expect("load sender thread panicked");
        if let Some(e) = failure {
            return Err(e);
        }
        let (due, sent) = sent?;
        debug_assert_eq!(due.len(), received.len());
        Ok(LoadRun {
            origin,
            due,
            sent,
            received,
            answers,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_do_not_drift() {
        // 3 000 rps: 333 333.33.. ns apart; accumulating a rounded interval
        // would be 1 ns off per request, k-th due time is exact to 1 ns.
        assert_eq!(due_ns(0, 3_000.0), 0);
        assert_eq!(due_ns(1, 3_000.0), 333_333);
        assert_eq!(due_ns(2, 3_000.0), 666_667);
        assert_eq!(due_ns(3_000, 3_000.0), 1_000_000_000);
        assert_eq!(due_ns(300_000, 3_000.0), 100_000_000_000);
    }

    #[test]
    fn open_loop_sends_every_request_due_inside_the_run() {
        assert_eq!(open_loop_requests(Duration::from_secs(2), 4_000.0), 8_000);
        assert_eq!(open_loop_requests(Duration::from_millis(1), 3_000.0), 3);
        assert_eq!(open_loop_requests(Duration::ZERO, 3_000.0), 0);
    }

    #[test]
    fn lateness_counts_only_late_sends() {
        assert_eq!(lateness_ns(1_000, 1_000), 0);
        assert_eq!(lateness_ns(1_000, 900), 0);
        assert_eq!(lateness_ns(1_000, 1_250), 250);
    }

    #[test]
    fn latency_includes_the_wait_a_stall_imposes() {
        // Requests 0..3 due every 1 ms; the sender stalls 5 ms before
        // request 1 and then catches up. Each answer takes 0.2 ms after its
        // send. Timed from the send, the stall vanishes; from the due time
        // it is charged to every request due during it.
        let due: Vec<u64> = (0..4).map(|k| due_ns(k, 1_000.0)).collect();
        let sent = [0, 6_000_000, 6_000_100, 6_000_200];
        let received: Vec<u64> = sent.iter().map(|s| s + 200_000).collect();
        let from_due: Vec<u64> = due
            .iter()
            .zip(&received)
            .map(|(&d, &r)| latency_ns(d, r))
            .collect();
        assert_eq!(from_due, [200_000, 5_200_000, 4_200_100, 3_200_200]);
        let late: Vec<u64> = due
            .iter()
            .zip(&sent)
            .map(|(&d, &s)| lateness_ns(d, s))
            .collect();
        assert_eq!(late, [0, 5_000_000, 4_000_100, 3_000_200]);
    }

    #[test]
    fn answer_rate_counts_a_half_open_window() {
        let run = LoadRun {
            origin: Instant::now(),
            due: vec![0; 4],
            sent: vec![0; 4],
            received: vec![100, 500, 999, 1_000],
            answers: Vec::new(),
        };
        // Three answers in [0, 1000) ns = 3e6 per second.
        assert_eq!(run.answer_rate(0, 1_000), 3e6);
    }
}
