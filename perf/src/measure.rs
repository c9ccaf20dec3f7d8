//! The two kinds of run: end-to-end (tracing off) and per-layer (traced).

use crate::drive::{self, Outcome};
use crate::oracle::Oracle;
use crate::stats::{highest_supported, median, quantile, supported_quantile};
use crate::trace::{self_times, LayerTime};
use crate::workload::{Input, Kind, Spec};
use crate::{prom, replay, sys};
use icpe_core::{IcpeConfig, IcpePipeline, PipelineEvent};
use icpe_persist::CheckpointStore;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The pipeline's stages (its topology at the library-default parallelism
/// and fanin), each with the replay layers whose self time runs inside it.
/// The rest of a stage's busy time is what the trace does not explain:
/// exchange, merge-tree and scheduling work.
const STAGES: [(&str, &[&str]); 7] = [
    ("align-route", &["runtime.align"]),
    ("align-shard", &["cluster.allocate"]),
    ("snap-merge-final", &[]),
    ("grid-query", &["cluster.query"]),
    ("sync-shard", &["cluster.sync"]),
    ("sync-merge-final", &["cluster.dbscan"]),
    ("enumerate", &["pattern.enumerate"]),
];

/// Closed-loop passes every end-to-end run makes at least.
const MIN_CLOSED_PASSES: usize = 5;
/// Repetitions of every ladder rate in an end-to-end run.
const LADDER_REPS: usize = 3;
/// Replays of each kind (traced, untraced) every per-layer run makes at least.
const MIN_REPLAYS: usize = 2;

/// A metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// The result line of one run.
#[derive(Debug, Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Run {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn count(&mut self, out: &Outcome) {
        self.attempted += out.sent;
        self.failed += out.failed;
    }
}

/// Per-pass checkpoint directories, inside the working directory.
pub struct WorkDirs {
    root: PathBuf,
    next: AtomicU64,
}

impl WorkDirs {
    pub fn new(root: impl Into<PathBuf>) -> WorkDirs {
        WorkDirs {
            root: root.into(),
            next: AtomicU64::new(0),
        }
    }

    fn dir(&self, what: &str) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        self.root.join(format!("{what}-{}-{n}", std::process::id()))
    }
}

/// One pass of the workload's own path, checked against the oracle.
fn pass(
    spec: &Spec,
    input: &Input,
    oracle: &Oracle,
    rate: Option<f64>,
    dirs: &WorkDirs,
    what: &str,
) -> Result<Outcome, String> {
    let mut out = match spec.kind {
        Kind::FleetServe => {
            drive::serve(spec, input, rate, &dirs.dir("serve"), oracle.patterns.len())?
        }
        Kind::Convoy | Kind::Hotspot => {
            drive::inprocess(&spec.engine(), input, rate, oracle.patterns.len())
        }
    };
    oracle.check(what, std::mem::take(&mut out.patterns), out.late)?;
    Ok(out)
}

/// Records per ingest batch on the workload's path.
fn batch(spec: &Spec) -> usize {
    match spec.kind {
        Kind::FleetServe => spec.serve(Path::new(".")).ingest_batch,
        Kind::Convoy | Kind::Hotspot => spec.engine().runtime.batch_size,
    }
    .max(1)
}

/// One open-loop pass at a ladder rate: delivery latencies and generator
/// lag, both sorted.
struct Rung {
    rate: f64,
    setup_s: f64,
    achieved: f64,
    delivery_ms: Vec<f64>,
    lag_ms: Vec<f64>,
}

fn rung(
    spec: &Spec,
    input: &Input,
    oracle: &Oracle,
    rate: f64,
    dirs: &WorkDirs,
    run: &mut Run,
) -> Result<Rung, String> {
    let out = pass(
        spec,
        input,
        oracle,
        Some(rate),
        dirs,
        &format!("rung {rate}/s"),
    )?;
    run.count(&out);
    let lateness = spec.effective_engine().aligner.lateness;
    let flush_from = (input.tick_last_pos.len() as u32 - 1).saturating_sub(lateness);
    let mut delivery_ms = drive::delivery_ms(input, &out, batch(spec), flush_from);
    delivery_ms.sort_by(f64::total_cmp);
    let mut lag_ms = out.schedule.lag_ms.clone();
    lag_ms.sort_by(f64::total_cmp);
    Ok(Rung {
        rate,
        setup_s: out.setup_s,
        achieved: out.send_rate,
        delivery_ms,
        lag_ms,
    })
}

impl Rung {
    fn p(&self, q: f64) -> Result<f64, String> {
        supported_quantile(&self.delivery_ms, q).ok_or_else(|| {
            format!(
                "rung {}/s: {} delivery samples do not support p{}",
                self.rate,
                self.delivery_ms.len(),
                q * 100.0
            )
        })
    }

    fn lag_p99(&self) -> f64 {
        supported_quantile(&self.lag_ms, 0.99).unwrap_or_else(|| quantile(&self.lag_ms, 1.0))
    }
}

/// A ladder rate's repetitions, summarised by medians.
struct Step {
    p50_ms: f64,
    p99_ms: f64,
    lag_p99_ms: f64,
    achieved: f64,
}

impl Step {
    fn of(reps: &[Rung]) -> Result<Step, String> {
        let med = |f: &dyn Fn(&Rung) -> Result<f64, String>| -> Result<f64, String> {
            let v = reps.iter().map(f).collect::<Result<Vec<_>, _>>()?;
            median(&v).ok_or_else(|| "no repetitions".to_string())
        };
        Ok(Step {
            p50_ms: med(&|r| r.p(0.5))?,
            p99_ms: med(&|r| r.p(0.99))?,
            lag_p99_ms: med(&|r| Ok(r.lag_p99()))?,
            achieved: med(&|r| Ok(r.achieved))?,
        })
    }
}

/// End-to-end run, tracing off throughout:
///
/// 1. the open-loop ladder on the fresh process: one warm-up pass at the
///    high rate, then the rates interleaved over [`LADDER_REPS`]
///    repetitions, for delivery latency. An open loop holds a
///    schedule-bounded amount of data in flight, so the peak resident set
///    over these passes repeats from run to run;
/// 2. closed-loop passes for throughput, over the time left.
pub fn end_to_end(
    spec: &Spec,
    input: &Input,
    oracle: &Oracle,
    seconds: f64,
    dirs: &WorkDirs,
    rss_base_kb: u64,
) -> Result<Run, String> {
    let started = Instant::now();
    let mut run = Run::default();
    let n = input.records.len() as f64;
    let lateness = spec.effective_engine().aligner.lateness;
    sys::reset_peak_rss()?;
    let warm = rung(
        spec,
        input,
        oracle,
        spec.ladder[spec.ladder.len() - 1],
        dirs,
        &mut run,
    )?;
    let mut setups = vec![warm.setup_s];
    let mut reps: Vec<Vec<Rung>> = spec.ladder.iter().map(|_| Vec::new()).collect();
    for _ in 0..LADDER_REPS {
        for (i, &rate) in spec.ladder.iter().enumerate() {
            let r = rung(spec, input, oracle, rate, dirs, &mut run)?;
            eprintln!(
                "rung {rate:.0}/s (achieved {:.0}): delivery p50 {:.2} ms, p99 {:.2} ms over {} \
                 ticks (highest supported percentile p{}), hold-back floor {:.2} ms, \
                 generator lag p99 {:.2} ms",
                r.achieved,
                r.p(0.5)?,
                r.p(0.99)?,
                r.delivery_ms.len(),
                highest_supported(r.delivery_ms.len(), &[0.5, 0.9, 0.95, 0.99, 0.999])
                    .map_or(0.0, |q| q * 100.0),
                lateness as f64 * spec.objects as f64 / rate * 1e3,
                r.lag_p99()
            );
            setups.push(r.setup_s);
            reps[i].push(r);
        }
    }
    let peak_mb = sys::peak_rss_kb()?.saturating_sub(rss_base_kb) as f64 / 1024.0;
    eprintln!("ladder peak RSS {peak_mb:.1} MB above the inputs");

    let mut rates = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    while rates.len() < MIN_CLOSED_PASSES || started.elapsed() < budget {
        let what = format!("closed-loop pass {}", rates.len() + 1);
        let out = pass(spec, input, oracle, None, dirs, &what)?;
        run.count(&out);
        eprintln!(
            "{what}: {:.0} rec/s, setup {:.3} ms",
            n / out.elapsed_s,
            out.setup_s * 1e3
        );
        rates.push(n / out.elapsed_s);
        setups.push(out.setup_s);
    }

    let steps = reps
        .iter()
        .map(|r| Step::of(r))
        .collect::<Result<Vec<_>, _>>()?;
    for (rate, s) in spec.ladder.iter().zip(&steps) {
        eprintln!(
            "ladder {rate:.0}/s, median of {LADDER_REPS}: delivery p50 {:.2} ms, p99 {:.2} ms, \
             generator lag p99 {:.2} ms, achieved {:.0}/s",
            s.p50_ms, s.p99_ms, s.lag_p99_ms, s.achieved
        );
    }
    let max_rate = steps
        .iter()
        .filter(|s| s.p99_ms <= spec.slo_ms && s.lag_p99_ms <= spec.slo_ms)
        .map(|s| s.achieved)
        .fold(0.0, f64::max);
    let (low, high) = (&steps[0], &steps[steps.len() - 1]);

    run.metric("setup_s", median(&setups).unwrap_or(0.0), "s");
    run.metric("records_per_s", median(&rates).unwrap_or(0.0), "rec/s");
    run.metric("peak_rss_mb", peak_mb, "MB");
    run.metric("delivery_p50_ms.low", low.p50_ms, "ms");
    run.metric("delivery_p50_ms.high", high.p50_ms, "ms");
    run.metric("max_rate_within_slo", max_rate, "rec/s");
    Ok(run)
}

/// What the instrumented in-process pass read from the registry.
struct Registry {
    busy_s: BTreeMap<String, f64>,
    blocked_s: BTreeMap<String, f64>,
    depth_max: BTreeMap<String, f64>,
    grid_query_imbalance: f64,
    balance_p95: f64,
    cells_migrated: u64,
    refine_splits: u64,
    barrier_ms: Vec<f64>,
    save_ms: Vec<f64>,
    checkpoint_bytes: Vec<f64>,
}

/// Checkpoints taken during the registry pass.
const REGISTRY_CHECKPOINTS: usize = 8;

/// The deployed pipeline (library defaults, the workload's effective
/// engine config) pushed closed loop, read through its `MetricRegistry`:
/// stage busy time, exchange blocking and queue depth (sampled), routing
/// state, plus timed checkpoint barriers persisted through
/// `CheckpointStore::save`.
fn registry_pass(
    config: &IcpeConfig,
    input: &Input,
    oracle: &Oracle,
    dir: &Path,
    run: &mut Run,
) -> Result<Registry, String> {
    let patterns = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&patterns);
    let live = IcpePipeline::launch(config, move |event| {
        if let PipelineEvent::Pattern(p) = event {
            sink.lock().expect("sink lock").push(crate::oracle::key(&p));
        }
    });
    let obs = live.obs().clone();
    let routing = live.routing().cloned();
    let store = CheckpointStore::open(dir, 2).map_err(|e| e.to_string())?;

    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let stop = Arc::clone(&stop);
        let obs = obs.clone();
        std::thread::spawn(move || {
            let mut depth: BTreeMap<String, f64> = BTreeMap::new();
            while !stop.load(Ordering::Relaxed) {
                let samples = prom::parse(&obs.render_prometheus());
                for (stage, v) in prom::per_stage_max(&samples, "exchange_queue_depth") {
                    let e = depth.entry(stage).or_insert(0.0);
                    *e = e.max(v);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            depth
        })
    };

    let batch = config.runtime.batch_size.max(1);
    let every = (input.records.len() / REGISTRY_CHECKPOINTS).max(batch);
    let (mut barrier_ms, mut save_ms, mut checkpoint_bytes) = (Vec::new(), Vec::new(), Vec::new());
    let mut pushed = 0usize;
    for chunk in input.records.chunks(batch) {
        live.push_batch(chunk.to_vec())
            .map_err(|_| "registry pass: pipeline refused records".to_string())?;
        pushed += chunk.len();
        if pushed % every < batch && pushed < input.records.len() {
            let t = Instant::now();
            let ckpt = live.checkpoint().map_err(|_| "checkpoint barrier failed")?;
            let t_saved = Instant::now();
            let path = store.save(ckpt.seq, &ckpt).map_err(|e| e.to_string())?;
            save_ms.push(t_saved.elapsed().as_secs_f64() * 1e3);
            barrier_ms.push((t_saved - t).as_secs_f64() * 1e3);
            checkpoint_bytes.push(std::fs::metadata(path).map_err(|e| e.to_string())?.len() as f64);
        }
    }
    let report = live.finish();
    stop.store(true, Ordering::Relaxed);
    let depth_max = sampler.join().map_err(|_| "sampler panicked")?;
    let _ = std::fs::remove_dir_all(dir);
    run.attempted += input.records.len() as u64;
    run.failed += report.late_records;
    let got = std::mem::take(&mut *patterns.lock().expect("sink lock"));
    oracle.check("registry pass", got, report.late_records)?;

    let samples = prom::parse(&obs.render_prometheus());
    let per_subtask: Vec<f64> = samples
        .iter()
        .filter(|s| s.family == "stage_batch_seconds_sum" && s.stage == "grid-query")
        .map(|s| s.value)
        .collect();
    let mean = per_subtask.iter().sum::<f64>() / per_subtask.len().max(1) as f64;
    let (balance_p95, cells_migrated, refine_splits) = match &routing {
        Some(r) => {
            let series: Vec<f64> = r.imbalance_series().iter().map(|&(_, x)| x).collect();
            let status = r.status();
            (
                quantile(&series, 0.95),
                status.cells_migrated,
                status.splits,
            )
        }
        None => (0.0, 0, 0),
    };
    Ok(Registry {
        busy_s: obs.stage_seconds().into_iter().collect(),
        blocked_s: prom::per_stage_sum(&samples, "exchange_blocked_seconds_total"),
        depth_max,
        grid_query_imbalance: if mean > 0.0 {
            per_subtask.iter().copied().fold(0.0, f64::max) / mean
        } else {
            0.0
        },
        balance_p95,
        cells_migrated,
        refine_splits,
        barrier_ms,
        save_ms,
        checkpoint_bytes,
    })
}

/// Samples the process's OS thread count until stopped.
struct ThreadSampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<u64>,
}

impl ThreadSampler {
    fn start() -> ThreadSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut peak = 0;
            while !flag.load(Ordering::Relaxed) {
                peak = peak.max(sys::threads());
                std::thread::sleep(Duration::from_millis(10));
            }
            peak
        });
        ThreadSampler { stop, handle }
    }

    /// Peak thread count seen.
    fn stop(self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().unwrap_or(0)
    }
}

/// Per-layer run: generator lag at the ladder's ends, the registry pass,
/// then alternating untraced and traced replays of the same input.
pub fn per_layer(
    spec: &Spec,
    input: &Input,
    oracle: &Oracle,
    seconds: f64,
    dirs: &WorkDirs,
    spans_out: &Path,
) -> Result<Run, String> {
    let mut run = Run::default();
    let started = Instant::now();
    let threads = ThreadSampler::start();
    let mut ends = Vec::new();
    for rate in [spec.ladder[0], spec.ladder[spec.ladder.len() - 1]] {
        ends.push(rung(spec, input, oracle, rate, dirs, &mut run)?);
    }
    let config = spec.effective_engine();
    let reg = registry_pass(&config, input, oracle, &dirs.dir("registry"), &mut run)?;
    let threads_max = threads.stop();

    let batch = batch(spec);
    let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
    let mut last = None;
    while traced_s.len() < MIN_REPLAYS || started.elapsed().as_secs_f64() < seconds {
        for traced in [false, true] {
            let r = replay::run(&config, input, batch, traced)?;
            oracle.check("replay", r.patterns.clone(), r.counts.late)?;
            if traced {
                traced_s.push(r.elapsed_s);
                last = Some(r);
            } else {
                untraced_s.push(r.elapsed_s);
            }
        }
    }
    let r = last.expect("at least one traced replay");
    let file =
        std::fs::File::create(spans_out).map_err(|e| format!("{}: {e}", spans_out.display()))?;
    r.tracer.write_jsonl(file).map_err(|e| e.to_string())?;

    let layers = self_times(r.tracer.spans());
    let self_ns = |name: &str| layers.get(name).copied().unwrap_or_default().self_ns as f64;
    let total_ns: f64 = layers.values().map(|l| l.self_ns as f64).sum();
    eprintln!(
        "{:>20} | {:>8} {:>10} {:>6}",
        "layer", "spans", "self s", "share"
    );
    for (name, LayerTime { self_ns, spans }) in &layers {
        eprintln!(
            "{name:>20} | {spans:>8} {:>10.4} {:>5.1}%",
            *self_ns as f64 / 1e9,
            *self_ns as f64 / total_ns * 100.0
        );
    }
    let c = &r.counts;
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };

    run.metric(
        "serve.parse_ns_per_record",
        per(self_ns("serve.parse"), c.records),
        "ns",
    );
    run.metric(
        "types.stamp_ns_per_record",
        per(self_ns("types.stamp"), c.records),
        "ns",
    );
    run.metric(
        "serve.render_ns_per_event",
        per(self_ns("serve.render"), c.events),
        "ns",
    );
    run.metric(
        "serve.hub_publish_ns_per_event",
        per(self_ns("serve.publish"), c.events),
        "ns",
    );
    run.metric(
        "runtime.align_ns_per_record",
        per(self_ns("runtime.align"), c.records),
        "ns",
    );
    run.metric(
        "runtime.align_pending_rows_max",
        c.pending_rows_max as f64,
        "count",
    );
    for (stage, _) in STAGES {
        let blocked = reg.blocked_s.get(stage).copied().unwrap_or(0.0);
        run.metric(format!("runtime.exchange_blocked_s.{stage}"), blocked, "s");
    }
    for (stage, _) in STAGES {
        let depth = reg.depth_max.get(stage).copied().unwrap_or(0.0);
        run.metric(
            format!("runtime.exchange_queue_depth_max.{stage}"),
            depth,
            "count",
        );
    }
    let rows = c.snapshot_rows;
    run.metric(
        "cluster.allocate_ns_per_record",
        per(self_ns("cluster.allocate"), rows),
        "ns",
    );
    run.metric(
        "cluster.replication_ratio",
        per(c.grid_objects as f64, rows),
        "ratio",
    );
    run.metric(
        "cluster.query_ns_per_record",
        per(self_ns("cluster.query"), rows),
        "ns",
    );
    run.metric(
        "cluster.query_ns_per_cell",
        per(self_ns("cluster.query"), c.cells),
        "ns",
    );
    run.metric(
        "cluster.objects_per_cell_p99",
        quantile(&c.cell_sizes, 0.99),
        "count",
    );
    run.metric(
        "cluster.sync_ns_per_pair",
        per(self_ns("cluster.sync"), c.pairs_found),
        "ns",
    );
    run.metric(
        "cluster.sync_dup_ratio",
        per(c.pairs_duplicate as f64, c.pairs_found),
        "ratio",
    );
    run.metric(
        "cluster.dbscan_ns_per_snapshot",
        per(self_ns("cluster.dbscan"), c.snapshots),
        "ns",
    );
    run.metric("cluster.balance_p95_imbalance", reg.balance_p95, "ratio");
    run.metric("cluster.cells_migrated", reg.cells_migrated as f64, "count");
    run.metric("index.refine_splits", reg.refine_splits as f64, "count");
    run.metric(
        "pattern.enumerate_ns_per_snapshot",
        per(self_ns("pattern.enumerate"), c.snapshots),
        "ns",
    );
    run.metric(
        "pattern.patterns_per_record",
        per(c.patterns as f64, c.records),
        "ratio",
    );
    run.metric(
        "pattern.avg_cluster_size",
        per(c.cluster_members as f64, c.clusters),
        "count",
    );
    run.metric("persist.save_ms", median(&reg.save_ms).unwrap_or(0.0), "ms");
    run.metric(
        "persist.checkpoint_bytes",
        median(&reg.checkpoint_bytes).unwrap_or(0.0),
        "B",
    );
    run.metric(
        "core.checkpoint_barrier_ms",
        median(&reg.barrier_ms).unwrap_or(0.0),
        "ms",
    );
    let busy_total: f64 = reg.busy_s.values().sum();
    for (stage, _) in STAGES {
        run.metric(
            format!("core.stage_busy_s.{stage}"),
            reg.busy_s.get(stage).copied().unwrap_or(0.0),
            "s",
        );
    }
    for (stage, _) in STAGES {
        let busy = reg.busy_s.get(stage).copied().unwrap_or(0.0);
        run.metric(
            format!("core.stage_busy_share.{stage}"),
            busy / busy_total.max(1e-12),
            "ratio",
        );
    }
    run.metric(
        "core.grid_query_subtask_imbalance",
        reg.grid_query_imbalance,
        "ratio",
    );
    run.metric("core.threads", threads_max as f64, "count");
    let serial = input.records.len() as f64 / oracle.elapsed_s;
    run.metric("core.serial_records_per_s", serial, "rec/s");
    run.metric("bench.gen_lag_p99_ms.low", ends[0].lag_p99(), "ms");
    run.metric("bench.gen_lag_p99_ms.high", ends[1].lag_p99(), "ms");
    run.metric("bench.delivery_p99_ms.low", ends[0].p(0.99)?, "ms");
    run.metric("bench.delivery_p99_ms.high", ends[1].p(0.99)?, "ms");
    let overhead = median(&traced_s).unwrap_or(0.0) / median(&untraced_s).unwrap_or(1.0) - 1.0;
    run.metric("trace.overhead_frac", overhead, "ratio");
    for (stage, layer_names) in STAGES {
        let busy = reg.busy_s.get(stage).copied().unwrap_or(0.0);
        let explained: f64 = layer_names.iter().map(|l| self_ns(l) / 1e9).sum();
        run.metric(
            format!("trace.unexplained_s.{stage}"),
            busy - explained,
            "s",
        );
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::workload::tiny;

    /// Each workload at tiny scale: its own path and the replay reproduce
    /// the oracle, and a perturbed oracle — one pattern lost, or one
    /// duplicated — trips the gate.
    #[test]
    fn tiny_workloads_pass_the_gate_and_a_perturbed_pattern_set_trips_it() {
        let dirs = WorkDirs::new(format!(".perf-out/test-{}", std::process::id()));
        for name in ["convoy", "hotspot", "fleet-serve"] {
            let spec = tiny(name);
            let input = spec.input(5);
            let truth = oracle::run(&spec.effective_engine(), &input.records);
            assert!(
                !truth.patterns.is_empty(),
                "{name}: the tiny input has patterns"
            );

            let out = pass(&spec, &input, &truth, None, &dirs, name)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(out.failed, 0, "{name}");
            let r = replay::run(&spec.effective_engine(), &input, batch(&spec), true)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            truth
                .check("replay", r.patterns, r.counts.late)
                .unwrap_or_else(|e| panic!("{name}: {e}"));

            let mut lost = truth.clone();
            lost.patterns.pop();
            let mut doubled = truth.clone();
            doubled.patterns.push(truth.patterns[0].clone());
            for (what, bad) in [("lost", lost), ("doubled", doubled)] {
                let err = pass(&spec, &input, &bad, None, &dirs, name)
                    .expect_err("a perturbed pattern set must trip the gate");
                assert!(err.contains("multiset"), "{name} {what}: {err}");
            }
        }
        let _ = std::fs::remove_dir_all(".perf-out");
    }
}
