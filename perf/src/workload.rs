//! The three workloads: how each input is made from the seed, and the
//! detection configuration each one pins.
//!
//! Only detection parameters (CP constraints, ε, minPts, grid width,
//! enumerator) and, for `hotspot`, rebalancing are set here. Every
//! deployment knob — parallelism, batch size, channel capacity, sync
//! fanin, aligner shards — stays at the library default, so a change to a
//! default is measured rather than masked.

use icpe_core::{BalancerConfig, EnumeratorKind, IcpeConfig, Supervision};
use icpe_gen::{HotspotConfig, HotspotGenerator, TaxiConfig, TaxiGenerator, TraceSet};
use icpe_serve::{CheckpointPolicy, ServeConfig, WireRecord};
use icpe_types::{Constraints, Discretizer, GpsRecord, ObjectId, RawRecord};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::time::Duration;

/// Which system path a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Planted co-moving groups, uniform space, in-process pipeline.
    Convoy,
    /// Zipf moving hotspot, adaptive routing + refinement, in-process.
    Hotspot,
    /// Taxi fleet through the TCP server, supervised, durable checkpoints.
    FleetServe,
}

/// A workload at a given scale.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Moving objects (one report each per tick).
    pub objects: usize,
    /// Ticks in the input; at least ~1,050 so every ladder rung yields
    /// ≥ 1,000 delivery samples and its p99 has ten samples beyond it.
    pub ticks: u32,
    /// Open-loop rates, records/s ascending: first = "low", last = "high".
    pub ladder: Vec<f64>,
    /// p99 delivery-latency limit behind `max_rate_within_slo`, in ms.
    pub slo_ms: f64,
}

/// Seconds per tick on the wire (the server's `interval`).
pub const INTERVAL_S: f64 = 1.0;
/// Periodic durable checkpoint cadence of the fleet-serve server.
const CHECKPOINT_EVERY: Duration = Duration::from_millis(250);
/// Share of fleet-serve records sent as NDJSON instead of CSV.
const JSON_SHARE: f64 = 0.25;
/// Fleet-serve disorder: a record is displaced with this probability by up
/// to [`DISORDER_SPAN`] positions (per-object order is kept).
const DISORDER_PROB: f64 = 0.2;
const DISORDER_SPAN: usize = 48;

impl Spec {
    /// The benchmark-scale workload called `name`.
    pub fn named(name: &str) -> Option<Spec> {
        let (kind, objects, ladder, slo_ms) = match name {
            "convoy" => (Kind::Convoy, 400, vec![120e3, 240e3], 200.0),
            "hotspot" => (Kind::Hotspot, 600, vec![200e3, 400e3], 200.0),
            "fleet-serve" => (Kind::FleetServe, 100, vec![40e3, 80e3], 200.0),
            _ => return None,
        };
        Some(Spec {
            name: match kind {
                Kind::Convoy => "convoy",
                Kind::Hotspot => "hotspot",
                Kind::FleetServe => "fleet-serve",
            },
            kind,
            objects,
            ticks: 1_100,
            ladder,
            slo_ms,
        })
    }

    /// The detection configuration handed to the pipeline or server.
    pub fn engine(&self) -> IcpeConfig {
        let cp = |m, k, l, g| Constraints::new(m, k, l, g).expect("valid constraints");
        let detection = match self.kind {
            Kind::Convoy => IcpeConfig::builder()
                .constraints(cp(4, 8, 4, 2))
                .epsilon(1.0)
                .min_pts(5)
                .enumerator(EnumeratorKind::Fba),
            Kind::Hotspot => IcpeConfig::builder()
                .constraints(cp(4, 8, 4, 2))
                .epsilon(0.3)
                .grid_width(8.0)
                .min_pts(5)
                .enumerator(EnumeratorKind::Vba)
                .rebalance(BalancerConfig::default())
                .refine_max_depth(2),
            Kind::FleetServe => IcpeConfig::builder()
                .constraints(cp(4, 8, 4, 2))
                .epsilon(1.0)
                .min_pts(4)
                .enumerator(EnumeratorKind::Fba)
                .supervised(Supervision::default()),
        };
        detection.build().expect("valid detection config")
    }

    /// The engine configuration the pipeline actually runs. The server
    /// widens the aligner to cover the disorder its ingest edge admits
    /// (`Server::start`); the oracle and the traced replay must seal with
    /// the same lateness, so the same rule is applied here.
    pub fn effective_engine(&self) -> IcpeConfig {
        let mut engine = self.engine();
        if self.kind == Kind::FleetServe {
            let edge_disorder = 2 * self.serve(Path::new(".")).max_producer_skew + 2;
            engine.aligner.lateness = engine.aligner.lateness.max(edge_disorder);
            engine.aligner.max_lag = engine.aligner.max_lag.max(2 * edge_disorder);
        }
        engine
    }

    /// The fleet-serve server configuration, checkpointing into `dir`.
    /// The environment-derived fields are pinned explicitly.
    pub fn serve(&self, dir: &Path) -> ServeConfig {
        let mut serve = ServeConfig::new(self.engine())
            .with_checkpoints(CheckpointPolicy::new(dir).every(CHECKPOINT_EVERY));
        serve.interval = INTERVAL_S;
        serve.socket_timeout = None;
        serve.journal_patterns = false;
        serve
    }

    /// Builds the input for `seed`.
    pub fn input(&self, seed: u64) -> Input {
        let traces = self.traces(seed);
        let mut raws = traces.to_records(INTERVAL_S);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD15C_0DE5);
        if self.kind == Kind::FleetServe {
            raws = disorder(raws, &mut rng);
        }
        let lines = raws
            .iter()
            .map(|r| {
                let wire = WireRecord {
                    id: r.id.0,
                    time: r.time,
                    x: r.location.x,
                    y: r.location.y,
                };
                if self.kind == Kind::FleetServe && rng.random_bool(JSON_SHARE) {
                    wire.to_json()
                } else {
                    wire.to_csv()
                }
            })
            .collect();
        Input::new(raws, lines)
    }

    fn traces(&self, seed: u64) -> TraceSet {
        match self.kind {
            Kind::Convoy => {
                icpe_bench::workloads::pattern_workload(self.objects, self.ticks, seed).1
            }
            Kind::Hotspot => HotspotGenerator::new(HotspotConfig {
                num_objects: self.objects,
                num_ticks: self.ticks,
                zipf_s: 1.6,
                retarget_every: 100,
                seed,
                ..HotspotConfig::default()
            })
            .traces(),
            Kind::FleetServe => {
                // Road network scaled with the fleet: the default 10 × 10
                // grid carries 220 taxis.
                let side = ((10.0 * (self.objects as f64 / 220.0).sqrt()).round() as usize).max(3);
                TaxiGenerator::new(TaxiConfig {
                    num_objects: self.objects,
                    num_ticks: self.ticks,
                    net_nx: side,
                    net_ny: side,
                    seed,
                    ..TaxiConfig::default()
                })
                .traces()
            }
        }
    }
}

/// A workload input in send order.
#[derive(Debug)]
pub struct Input {
    /// Wire lines (CSV, or NDJSON for a share of fleet-serve records).
    pub lines: Vec<String>,
    /// The same records stamped the way the server stamps them
    /// (`Discretizer::push` in send order): the in-process pipeline input.
    pub records: Vec<GpsRecord>,
    /// Per tick, the send position of its last record (`None` for a tick
    /// without records).
    pub tick_last_pos: Vec<Option<usize>>,
}

impl Input {
    fn new(raws: Vec<RawRecord>, lines: Vec<String>) -> Input {
        let mut discretizer = Discretizer::new(0.0, INTERVAL_S).expect("valid interval");
        let records: Vec<GpsRecord> = raws
            .iter()
            .map(|r| {
                discretizer
                    .push(r)
                    .expect("per-object times strictly increase in every input")
            })
            .collect();
        let max_tick = records.iter().map(|r| r.time.0).max().unwrap_or(0);
        let mut tick_last_pos = vec![None; max_tick as usize + 1];
        for (pos, r) in records.iter().enumerate() {
            tick_last_pos[r.time.0 as usize] = Some(pos);
        }
        Input {
            lines,
            records,
            tick_last_pos,
        }
    }

    /// Records per tick (for the never-sealed count).
    pub fn records_per_tick(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.tick_last_pos.len()];
        for r in &self.records {
            counts[r.time.0 as usize] += 1;
        }
        counts
    }
}

/// Bounded displacement that keeps each object's reports in time order:
/// positions are swapped forward at random, then each object's records are
/// dealt back into that object's positions oldest first.
fn disorder(records: Vec<RawRecord>, rng: &mut StdRng) -> Vec<RawRecord> {
    let n = records.len();
    let mut slots: Vec<ObjectId> = records.iter().map(|r| r.id).collect();
    for i in 0..n.saturating_sub(1) {
        if rng.random_bool(DISORDER_PROB) {
            let j = (i + 1 + rng.random_range(0..DISORDER_SPAN)).min(n - 1);
            slots.swap(i, j);
        }
    }
    let mut queues: HashMap<ObjectId, VecDeque<RawRecord>> = HashMap::new();
    for r in records {
        // `to_records` yields time order, so each queue is oldest first.
        queues.entry(r.id).or_default().push_back(r);
    }
    slots
        .into_iter()
        .map(|id| {
            queues
                .get_mut(&id)
                .and_then(VecDeque::pop_front)
                .expect("each slot holds a record of its object")
        })
        .collect()
}

/// A tiny version of `spec` for the benchmark's own tests.
#[cfg(test)]
pub fn tiny(name: &str) -> Spec {
    let mut spec = Spec::named(name).expect("known workload");
    // The hotspot's small ε needs a denser fleet before squads cluster.
    spec.objects = if spec.kind == Kind::Hotspot { 300 } else { 60 };
    spec.ticks = 200;
    spec.ladder = vec![20e3, 40e3];
    spec.slo_ms = 1e4;
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let spec = tiny("fleet-serve");
        let a = spec.input(3);
        let b = spec.input(3);
        let c = spec.input(4);
        assert_eq!(a.lines, b.lines);
        assert_ne!(a.lines, c.lines);
        assert_eq!(a.lines.len(), a.records.len());
    }

    #[test]
    fn disorder_keeps_per_object_order() {
        let spec = tiny("fleet-serve");
        let input = spec.input(9);
        let mut last: HashMap<ObjectId, u32> = HashMap::new();
        let mut displaced = false;
        let mut prev_tick = 0;
        for r in &input.records {
            if let Some(t) = last.insert(r.id, r.time.0) {
                assert!(r.time.0 > t, "object {:?} went backwards", r.id);
            }
            displaced |= r.time.0 < prev_tick;
            prev_tick = r.time.0;
        }
        assert!(
            displaced,
            "the fleet-serve stream is out of order across objects"
        );
    }
}
