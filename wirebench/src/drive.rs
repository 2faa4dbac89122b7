//! The load generator: one thread and one connection per stream.
//!
//! Open loop: every request has a due time fixed by the schedule and is
//! sent at it (or as soon as its connection is free, if it is late);
//! its latency is timed from the due time, so a stall's queueing shows
//! in every request it delays. Closed loop: each connection sends its
//! next request when the previous reply arrives.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use edna_server::{Client, Service};

use crate::exec::{run_wire, Caps};
use crate::workload::{Class, Scheduled, Workload};

/// One request as the generator saw it, in microseconds since the phase
/// started.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Latency class.
    pub class: Class,
    /// Due (open loop) or sent (closed loop).
    pub due_us: f64,
    /// When the generator sent it.
    pub sent_us: f64,
    /// When the reply was checked.
    pub done_us: f64,
}

impl Sample {
    /// Latency from due time to checked reply.
    pub fn latency_us(&self) -> f64 {
        self.done_us - self.due_us
    }

    /// How late the generator sent the request.
    pub fn lag_us(&self) -> f64 {
        self.sent_us - self.due_us
    }
}

/// A driven phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Every request, in completion order per stream.
    pub samples: Vec<Sample>,
    /// From the start until the last reply.
    pub wall_s: f64,
    /// Messages of failed or wrong replies.
    pub failures: Vec<String>,
    /// Peak resident set size while the phase ran, in MB.
    pub rss_peak_mb: f64,
}

impl Phase {
    /// Latencies of the samples whose class satisfies `pick`.
    pub fn latencies(&self, pick: impl Fn(Class) -> bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| pick(s.class))
            .map(Sample::latency_us)
            .collect()
    }
}

/// How often the phase samples the process's resident set size. The
/// kernel's own high-water mark (`VmHWM`) also catches the set-ups and
/// millisecond spikes of concurrent table copies: over five seeds on a
/// shared 2-core host it spread 13–16%, these samples 1–12%.
const RSS_EVERY: Duration = Duration::from_millis(20);

/// Resident set size of this process (Linux `VmRSS`), in MB.
fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// When the first request is due: late enough for both generator threads
/// to have connected.
const START_DELAY: Duration = Duration::from_millis(50);

/// Drives `ops` against the server at `addr`, one generator thread per
/// stream. With `open` false every request is sent as soon as its
/// connection is free.
pub fn drive(
    addr: SocketAddr,
    svc: &Service,
    workload: Workload,
    ops: &[Scheduled],
    open: bool,
) -> Phase {
    let start = Instant::now() + START_DELAY;
    let streams: Vec<Vec<&Scheduled>> = (0..2)
        .map(|s| ops.iter().filter(|o| o.stream == s).collect())
        .collect();
    let done = AtomicBool::new(false);
    let (results, rss_peak_mb): (Vec<Phase>, f64) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = rss_mb();
            while !done.load(Ordering::SeqCst) {
                std::thread::sleep(RSS_EVERY);
                peak = peak.max(rss_mb());
            }
            peak
        });
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                scope.spawn(move || drive_stream(addr, svc, workload, stream, start, open))
            })
            .collect();
        let results = handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect();
        done.store(true, Ordering::SeqCst);
        (results, sampler.join().expect("memory sampler panicked"))
    });
    let mut phase = Phase {
        rss_peak_mb,
        ..Phase::default()
    };
    for r in results {
        phase.samples.extend(r.samples);
        phase.failures.extend(r.failures);
    }
    phase.wall_s = phase.samples.iter().map(|s| s.done_us).fold(0.0, f64::max) / 1e6;
    phase
}

fn since(start: Instant, t: Instant) -> f64 {
    t.checked_duration_since(start)
        .unwrap_or_default()
        .as_secs_f64()
        * 1e6
}

fn drive_stream(
    addr: SocketAddr,
    svc: &Service,
    workload: Workload,
    ops: &[&Scheduled],
    start: Instant,
    open: bool,
) -> Phase {
    let mut phase = Phase::default();
    if ops.is_empty() {
        return phase;
    }
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            phase.failures.push(format!("cannot connect: {e}"));
            return phase;
        }
    };
    let mut caps = Caps::default();
    phase.samples = pace(ops, start, open, |s| {
        run_wire(&mut client, svc, workload, s.id, &s.op, &mut caps)
            .map_err(|e| {
                phase
                    .failures
                    .push(format!("op {} ({:?}): {e}", s.id, s.op.class()))
            })
            .is_ok()
    });
    phase
}

/// Sends each operation at its due time (open loop) or as soon as the
/// previous one finished (closed loop), timing each from when it was
/// due. `send` runs one operation and reports whether it succeeded.
fn pace(
    ops: &[&Scheduled],
    start: Instant,
    open: bool,
    mut send: impl FnMut(&Scheduled) -> bool,
) -> Vec<Sample> {
    sleep_until(start);
    let mut samples = Vec::with_capacity(ops.len());
    for s in ops {
        let due = if open {
            let due = start + Duration::from_micros(s.due_us);
            sleep_until(due);
            due
        } else {
            Instant::now()
        };
        let sent = Instant::now();
        send(s);
        let done = Instant::now();
        samples.push(Sample {
            class: s.op.class(),
            due_us: since(start, due),
            sent_us: since(start, sent),
            done_us: since(start, done),
        });
    }
    samples
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Op;

    fn ops(n: usize, gap_ms: u64) -> Vec<Scheduled> {
        (0..n)
            .map(|i| Scheduled {
                id: i,
                stream: 0,
                due_us: i as u64 * gap_ms * 1000,
                op: Op::Checkpoint,
            })
            .collect()
    }

    /// A server that stalls for 60 ms on the first request, then answers
    /// at once.
    fn stalled(s: &Scheduled) -> bool {
        if s.id == 0 {
            std::thread::sleep(Duration::from_millis(60));
        }
        true
    }

    #[test]
    fn open_loop_latency_counts_queueing_behind_a_stall() {
        let schedule = ops(5, 10);
        let refs: Vec<&Scheduled> = schedule.iter().collect();
        let samples = pace(&refs, Instant::now(), true, stalled);
        let ms = |us: f64| us / 1000.0;
        // Request 1 was due at 10 ms but could only be sent once the
        // stalled request returned at ~60 ms: ~50 ms of queueing, which
        // its latency (and the generator's lag) must show.
        assert!(ms(samples[1].latency_us()) >= 45.0, "{:?}", samples[1]);
        assert!(ms(samples[1].lag_us()) >= 45.0, "{:?}", samples[1]);
        // Request 4 (due at 40 ms) also waited ~20 ms.
        assert!(ms(samples[4].latency_us()) >= 15.0, "{:?}", samples[4]);
        // Latencies are timed from the schedule, not from the send.
        for (s, sample) in schedule.iter().zip(&samples) {
            assert!((sample.due_us - s.due_us as f64).abs() < 1.0, "{sample:?}");
        }
    }

    #[test]
    fn closed_loop_latency_starts_at_the_send() {
        let schedule = ops(5, 10);
        let refs: Vec<&Scheduled> = schedule.iter().collect();
        let samples = pace(&refs, Instant::now(), false, stalled);
        assert!(samples[0].latency_us() >= 55_000.0);
        // After the stall every request is sent at once: no queueing is
        // attributed to it, which is why capacity runs closed-loop and
        // latency runs open-loop.
        for s in &samples[1..] {
            assert!(s.latency_us() < 5_000.0, "{s:?}");
            assert!(s.lag_us() < 1_000.0, "{s:?}");
        }
    }
}
