//! Drives one pass of a workload through the system under test: the
//! in-process pipeline (`IcpePipeline::launch` + `push_batch`) or the TCP
//! server (`Server::start`, one producer connection, one `SUBSCRIBE all`
//! connection). A pass is either closed loop (push as fast as the system
//! accepts) or open loop at a fixed rate, where each batch is sent when
//! its last record is due, whatever the system is doing.

use crate::oracle::{key, PatternKey};
use crate::workload::{Input, Spec};
use icpe_core::{IcpeConfig, IcpePipeline, PipelineEvent};
use icpe_serve::{Event, Server};
use icpe_types::Pattern;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the edge may take to absorb what was written before the pass
/// is declared broken.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// What one pass observed.
#[derive(Debug)]
pub struct Outcome {
    /// From the call that starts the system until it accepted a record.
    pub setup_s: f64,
    /// From the first push until `finish` returned.
    pub elapsed_s: f64,
    /// Records per second the generator achieved, scheduled start offset
    /// excluded.
    pub send_rate: f64,
    /// Records sent.
    pub sent: u64,
    /// Records sent but refused, rejected, quarantined, dropped late,
    /// never sealed, or never written.
    pub failed: u64,
    /// Delivered patterns.
    pub patterns: Vec<PatternKey>,
    /// Late drops reported by the pipeline.
    pub late: u64,
    /// Snapshot-sealed notices as received: `(tick, when)`.
    pub seals: Vec<(u32, Instant)>,
    /// The send schedule the pass ran on.
    pub schedule: Schedule,
}

/// Open-loop send schedule: record `pos` is due at `t0 + pos / rate`
/// (plus `offset` after the first batch). Records how late each batch went
/// out.
#[derive(Debug, Clone)]
pub struct Schedule {
    rate: Option<f64>,
    offset: Duration,
    t0: Instant,
    /// Per batch after the first: how late it was handed over, in ms.
    pub lag_ms: Vec<f64>,
}

impl Schedule {
    fn new(rate: Option<f64>, offset: Duration) -> Self {
        Schedule {
            rate,
            offset,
            t0: Instant::now(),
            lag_ms: Vec::new(),
        }
    }

    /// Marks the first push: the schedule's origin.
    fn start(&mut self) {
        self.t0 = Instant::now();
    }

    /// When the record at send position `pos` is due (`None` closed loop).
    fn due(&self, pos: usize, batch: usize) -> Option<Instant> {
        let rate = self.rate?;
        let offset = if pos < batch {
            Duration::ZERO
        } else {
            self.offset
        };
        Some(self.t0 + offset + Duration::from_secs_f64(pos as f64 / rate))
    }

    /// Send rate over `records` handed over by now, the start offset
    /// excluded.
    fn achieved(&self, records: usize) -> f64 {
        let offset = if self.rate.is_some() {
            self.offset
        } else {
            Duration::ZERO
        };
        let span = self.t0.elapsed().saturating_sub(offset);
        records as f64 / span.as_secs_f64().max(1e-9)
    }

    /// Sleeps until the batch ending at `last_pos` is due.
    fn wait(&mut self, last_pos: usize, batch: usize) {
        let Some(due) = self.due(last_pos, batch) else {
            return;
        };
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let lag = Instant::now().saturating_duration_since(due);
        self.lag_ms.push(lag.as_secs_f64() * 1e3);
    }
}

/// Records of ticks that never received a sealed notice.
fn unsealed_records(input: &Input, seals: &[(u32, Instant)]) -> u64 {
    let mut sealed = vec![false; input.tick_last_pos.len()];
    for &(t, _) in seals {
        if let Some(s) = sealed.get_mut(t as usize) {
            *s = true;
        }
    }
    input
        .records_per_tick()
        .iter()
        .zip(sealed)
        .filter(|(_, s)| !s)
        .map(|(n, _)| n)
        .sum()
}

#[derive(Default)]
struct Sink {
    patterns: Vec<Pattern>,
    seals: Vec<(u32, Instant)>,
}

/// One in-process pass over `input.records`, batches of the pipeline's
/// configured batch size. `expected` patterns are collected without
/// regrowing the collection mid-run.
pub fn inprocess(
    config: &IcpeConfig,
    input: &Input,
    rate: Option<f64>,
    expected: usize,
) -> Outcome {
    let sink = Arc::new(Mutex::new(Sink {
        patterns: Vec::with_capacity(expected),
        seals: Vec::with_capacity(input.tick_last_pos.len()),
    }));
    let events = Arc::clone(&sink);
    let launched = Instant::now();
    let live = IcpePipeline::launch(config, move |event| {
        let mut sink = events.lock().expect("sink lock");
        match event {
            PipelineEvent::Pattern(p) => sink.patterns.push(p),
            PipelineEvent::SnapshotSealed { time } => sink.seals.push((time, Instant::now())),
        }
    });
    let batch = config.runtime.batch_size.max(1);
    let mut schedule = Schedule::new(rate, Duration::ZERO);
    let mut setup_s = 0.0;
    let mut refused = 0u64;
    for (i, chunk) in input.records.chunks(batch).enumerate() {
        if i == 0 {
            schedule.start();
        } else {
            schedule.wait(i * batch + chunk.len() - 1, batch);
        }
        if live.push_batch(chunk.to_vec()).is_err() {
            refused = (input.records.len() - i * batch) as u64;
            break;
        }
        if i == 0 {
            setup_s = launched.elapsed().as_secs_f64();
        }
    }
    let send_rate = schedule.achieved(input.records.len());
    let report = live.finish();
    let elapsed_s = schedule.t0.elapsed().as_secs_f64();
    let sink = std::mem::take(&mut *sink.lock().expect("sink lock"));
    let failed = refused + report.late_records + unsealed_records(input, &sink.seals);
    Outcome {
        setup_s,
        elapsed_s,
        send_rate,
        sent: input.records.len() as u64,
        failed,
        patterns: sink.patterns.iter().map(key).collect(),
        late: report.late_records,
        seals: sink.seals,
        schedule,
    }
}

/// The measuring subscriber: every line with its arrival instant.
type Received = Vec<(Instant, String)>;

fn subscribe(
    addr: SocketAddr,
    expected: usize,
) -> std::io::Result<JoinHandle<std::io::Result<Received>>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    (&stream).write_all(b"SUBSCRIBE all\n")?;
    Ok(std::thread::spawn(move || {
        let mut reader = BufReader::with_capacity(1 << 16, stream);
        let mut received = Vec::with_capacity(expected);
        let mut line = String::new();
        while reader.read_line(&mut line)? > 0 {
            received.push((Instant::now(), line.trim_end().to_string()));
            line.clear();
        }
        Ok(received)
    }))
}

/// Polls `done` every 50 µs until it holds or `timeout` passes; the short
/// period keeps the poll from inflating the set-up time it brackets.
fn wait_until(timeout: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while !done() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_micros(50));
    }
    true
}

/// One pass through the TCP server over `input.lines`, checkpointing into
/// `dir` (removed afterwards); `expected` patterns as for [`inprocess`].
pub fn serve(
    spec: &Spec,
    input: &Input,
    rate: Option<f64>,
    dir: &Path,
    expected: usize,
) -> Result<Outcome, String> {
    // Load shape: the producer (this thread) and the subscriber thread must
    // not outnumber the host's CPUs.
    if crate::sys::host_cpus() < 2 {
        return Err("fleet-serve drives a producer and a subscriber: it needs 2 CPUs".into());
    }
    let config = spec.serve(dir);
    let batch = config.ingest_batch.max(1);
    // The server holds every producer below tick `max_producer_skew` for
    // its startup grace; the open-loop schedule starts after it so the
    // grace is not charged as generator lag.
    let offset = config.startup_grace + Duration::from_millis(50);
    let launched = Instant::now();
    let server = Server::start(config).map_err(|e| format!("server start: {e}"))?;
    let addr = server.local_addr();
    let subscriber = subscribe(addr, expected + input.tick_last_pos.len())
        .map_err(|e| format!("subscribe: {e}"))?;
    let stats = server.stats();
    if !wait_until(Duration::from_secs(10), || {
        stats.subscribers.load(Ordering::Relaxed) >= 1
    }) {
        return Err("the subscriber was never registered".into());
    }
    let stream = TcpStream::connect(addr).map_err(|e| format!("producer connect: {e}"))?;
    stream.set_nodelay(true).ok();
    let mut writer = BufWriter::with_capacity(1 << 16, &stream);
    let mut schedule = Schedule::new(rate, offset);
    let mut setup_s = 0.0;
    let mut written = 0u64;
    for (i, chunk) in input.lines.chunks(batch).enumerate() {
        if i == 0 {
            schedule.start();
        } else {
            schedule.wait(i * batch + chunk.len() - 1, batch);
        }
        let sent = chunk
            .iter()
            .try_for_each(|line| writeln!(writer, "{line}"))
            .and_then(|()| {
                if rate.is_some() || i == 0 {
                    writer.flush()
                } else {
                    Ok(())
                }
            });
        if sent.is_err() {
            break;
        }
        written += chunk.len() as u64;
        if i == 0 {
            if !wait_until(Duration::from_secs(10), || {
                stats.records_in.load(Ordering::Relaxed) >= 1
            }) {
                return Err("the server never accepted the first record".into());
            }
            setup_s = launched.elapsed().as_secs_f64();
        }
    }
    if writer.flush().is_err() {
        written = written.min(stats.records_in.load(Ordering::Relaxed));
    }
    drop(writer);
    let send_rate = schedule.achieved(input.lines.len());
    let _ = stream.shutdown(Shutdown::Write);
    let taken = || {
        stats.records_in.load(Ordering::Relaxed)
            + stats.records_rejected.load(Ordering::Relaxed)
            + stats.records_quarantined.load(Ordering::Relaxed)
    };
    if !wait_until(DRAIN_TIMEOUT, || taken() >= written) {
        return Err(format!("the edge took {} of {written} records", taken()));
    }
    let refused = stats.records_rejected.load(Ordering::Relaxed)
        + stats.records_quarantined.load(Ordering::Relaxed);
    drop(stream);
    let shed = server.shed_count();
    let report = server.finish();
    let elapsed_s = schedule.t0.elapsed().as_secs_f64();
    let received = subscriber
        .join()
        .map_err(|_| "subscriber thread panicked".to_string())?
        .map_err(|e| format!("subscriber: {e}"))?;
    let _ = std::fs::remove_dir_all(dir);
    if shed > 0 {
        return Err(format!(
            "the server shed {shed} subscriber(s), the measuring one included"
        ));
    }

    let mut patterns = Vec::new();
    let mut seals = Vec::new();
    for (at, line) in received {
        match Event::parse(&line).map_err(|e| format!("subscriber line {line:?}: {e:?}"))? {
            Event::Pattern(p) => patterns.push((p.objects, p.times)),
            Event::Snapshot(s) => seals.push((s.time, at)),
        }
    }
    let unwritten = input.lines.len() as u64 - written;
    let failed = unwritten + refused + report.late_records + unsealed_records(input, &seals);
    Ok(Outcome {
        setup_s,
        elapsed_s,
        send_rate,
        sent: input.lines.len() as u64,
        failed,
        patterns,
        late: report.late_records,
        seals,
        schedule,
    })
}

/// Delivery latency per tick, in ms: from the scheduled due time of the
/// tick's last record to the sealed notice for that tick. Ticks from
/// `flush_from` on are sealed only by the end-of-stream flush and are left
/// out.
pub fn delivery_ms(input: &Input, out: &Outcome, batch: usize, flush_from: u32) -> Vec<f64> {
    out.seals
        .iter()
        .filter(|&&(t, _)| t < flush_from)
        .filter_map(|&(t, at)| {
            let pos = (*input.tick_last_pos.get(t as usize)?)?;
            let due = out.schedule.due(pos, batch)?;
            Some(if at >= due {
                (at - due).as_secs_f64() * 1e3
            } else {
                -((due - at).as_secs_f64() * 1e3)
            })
        })
        .collect()
}
