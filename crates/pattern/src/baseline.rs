//! **BA** — the Baseline engine (Algorithm 3): SPARE adapted to streams.
//!
//! For every window start, enumerate *all* subsets of the owner's partition
//! with `|O| ≥ M − 1` and verify each against the following η − 1 partitions
//! — `O(η · 2^|P|)` time per window, the exponential cost the bit
//! compression of FBA/VBA eliminates. Partitions beyond a configurable size
//! are skipped and counted ([`BaselineEngine::skipped_partitions`]), which is
//! the honest version of "B cannot run on large datasets" (Figure 12).
//! Subsets are `u64` masks over the partition's members, so no partition
//! wider than [`MAX_BASELINE_PARTITION`] is ever enumerated, whatever the
//! configured guard says.

use crate::engine::{EngineConfig, PatternEngine, WindowState, WindowView};
use crate::runs::{runs_from_times, runs_witness, runs_witness_anchored, Semantics};
use icpe_types::{CheckpointError, EngineCheckpoint, ObjectId, Pattern, TimeSequence};

/// The widest partition the Baseline can enumerate: its subsets are the
/// masks `1..2^n` of a `u64`. A wider
/// [`EngineConfig::max_baseline_partition`] acts as this value.
pub const MAX_BASELINE_PARTITION: usize = 63;

/// The Baseline pattern-enumeration engine.
#[derive(Debug)]
pub struct BaselineEngine {
    config: EngineConfig,
    windows: WindowState,
    skipped: usize,
}

impl BaselineEngine {
    /// Creates the engine.
    pub fn new(config: EngineConfig) -> Self {
        BaselineEngine {
            windows: WindowState::new(&config.constraints),
            config,
            skipped: 0,
        }
    }

    /// Number of partitions skipped because they exceeded
    /// [`EngineConfig::max_baseline_partition`].
    pub fn skipped_partitions(&self) -> usize {
        self.skipped
    }

    /// Rebuilds a Baseline engine from a checkpoint, loading only owners
    /// for which `keep` returns true. The skipped-partition counter is
    /// rehydrated: an incomplete result must stay marked incomplete across
    /// a restore.
    pub fn from_checkpoint(
        config: EngineConfig,
        ckpt: &EngineCheckpoint,
        keep: impl Fn(ObjectId) -> bool,
    ) -> Result<Self, CheckpointError> {
        if ckpt.kind != "BA" {
            return Err(CheckpointError::EngineMismatch {
                checkpoint: ckpt.kind.clone(),
                config: "BA".into(),
            });
        }
        Ok(BaselineEngine {
            windows: WindowState::restore(
                &config.constraints,
                ckpt.last_time,
                &ckpt.window_owners,
                keep,
            ),
            config,
            skipped: ckpt.skipped_partitions as usize,
        })
    }

    /// Enumerates one window's patterns into `out`.
    fn process(
        config: &EngineConfig,
        skipped: &mut usize,
        task: WindowView<'_>,
        out: &mut Vec<Pattern>,
    ) {
        let members = task.members();
        let n = members.len();
        if n > config.max_baseline_partition.min(MAX_BASELINE_PARTITION) {
            *skipped += 1;
            return;
        }
        let c = &config.constraints;
        let need = c.m() - 1; // owner is implicit
        if n < need {
            return;
        }
        let masks = task.member_masks();

        // Enumerate every subset with |O| ≥ M − 1 (the exponential loop).
        for subset in 1u64..(1u64 << n) {
            if (subset.count_ones() as usize) < need {
                continue;
            }
            // Times (window offsets) at which the whole subset stays with
            // the owner. Offset 0 always qualifies by construction.
            let times: Vec<u32> = masks
                .iter()
                .enumerate()
                .filter(|(_, &mask)| subset & mask == subset)
                .map(|(j, _)| j as u32)
                .collect();
            debug_assert_eq!(times.first(), Some(&0));
            let runs = runs_from_times(&times);
            // Under the paper's greedy semantics the window verifies only
            // from its own start (offset 0, Algorithm 3 line 3: T = {t});
            // later starts have their own windows.
            let witness = match config.semantics {
                Semantics::Subsequence => {
                    runs_witness(&runs, c.k(), c.l(), c.g(), Semantics::Subsequence)
                }
                Semantics::PaperGreedy => runs_witness_anchored(&runs, c.k(), c.l(), c.g()),
            };
            let Some(witness) = witness else {
                continue;
            };
            let mut objects: Vec<ObjectId> = (0..n)
                .filter(|i| subset & (1 << i) != 0)
                .map(|i| members[i])
                .collect();
            objects.push(task.owner);
            let times = TimeSequence::from_raw(witness.into_iter().map(|j| task.start + j))
                .expect("witness offsets are strictly increasing");
            out.push(Pattern::new(objects, times));
        }
    }
}

impl PatternEngine for BaselineEngine {
    fn name(&self) -> &'static str {
        "BA"
    }

    fn significance(&self) -> usize {
        self.config.constraints.m()
    }

    fn push_partitions(
        &mut self,
        time: icpe_types::Timestamp,
        partitions: Vec<crate::partition::Partition>,
    ) -> Vec<Pattern> {
        let BaselineEngine {
            config,
            windows,
            skipped,
        } = self;
        let mut out = Vec::new();
        windows.push_partitions(time, partitions, |task| {
            Self::process(config, skipped, task, &mut out)
        });
        out
    }

    fn finish(&mut self) -> Vec<Pattern> {
        let BaselineEngine {
            config,
            windows,
            skipped,
        } = self;
        let mut out = Vec::new();
        windows.finish(|task| Self::process(config, skipped, task, &mut out));
        out
    }

    fn overflowed_partitions(&self) -> usize {
        self.skipped
    }

    fn checkpoint(&self) -> EngineCheckpoint {
        let (last_time, window_owners) = self.windows.checkpoint();
        EngineCheckpoint {
            kind: "BA".into(),
            last_time,
            skipped_partitions: self.skipped as u64,
            window_owners,
            vba_owners: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::unique_object_sets;
    use icpe_types::{ClusterSnapshot, Constraints, Timestamp};

    fn oid(v: u32) -> ObjectId {
        ObjectId(v)
    }

    fn cs(t: u32, groups: &[&[u32]]) -> ClusterSnapshot {
        ClusterSnapshot::from_groups(
            Timestamp(t),
            groups
                .iter()
                .map(|g| g.iter().copied().map(ObjectId).collect::<Vec<_>>()),
        )
    }

    fn run_stream(engine: &mut BaselineEngine, stream: &[ClusterSnapshot]) -> Vec<Pattern> {
        let mut out = Vec::new();
        for s in stream {
            out.extend(engine.push(s));
        }
        out.extend(engine.finish());
        out
    }

    #[test]
    fn detects_a_simple_persistent_group() {
        // {1,2,3} together for 4 consecutive times; CP(3,4,2,2).
        let c = Constraints::new(3, 4, 2, 2).unwrap();
        let mut engine = BaselineEngine::new(EngineConfig::new(c));
        let stream: Vec<ClusterSnapshot> = (0..8).map(|t| cs(t, &[&[1, 2, 3]])).collect();
        let patterns = run_stream(&mut engine, &stream);
        let sets = unique_object_sets(&patterns);
        assert!(sets.contains(&vec![oid(1), oid(2), oid(3)]));
        // All reported patterns satisfy the constraints.
        for p in &patterns {
            assert!(p.satisfies(&c), "{p}");
        }
    }

    #[test]
    fn paper_fig2_cp_patterns() {
        // Figure 2 / §3.1: with CP(2,4,2,2), {o4,o5} and {o6,o7} qualify by
        // time 5 with T = ⟨2,3,4,5⟩; with CP(3,4,2,2), {o4,o5,o6} qualifies
        // at time 7 with T = ⟨3,4,6,7⟩.
        // Cluster stream transcribed from the figure (times 1..=8):
        let stream = vec![
            cs(1, &[&[1, 2], &[3, 4], &[5, 6, 7]]),
            cs(2, &[&[1, 2], &[3, 4, 5], &[6, 7]]),
            cs(3, &[&[2, 3, 4, 5, 6, 7, 8]]),
            cs(4, &[&[1, 2], &[3, 4, 5, 6, 7]]),
            cs(5, &[&[1, 2], &[4, 5], &[6, 7]]),
            cs(6, &[&[3, 4, 5, 6], &[7, 8]]),
            cs(7, &[&[1, 2], &[4, 5, 6, 7]]),
            cs(8, &[&[5, 6, 7, 8]]),
        ];
        let c2 = Constraints::new(2, 4, 2, 2).unwrap();
        let mut engine = BaselineEngine::new(EngineConfig::new(c2));
        let sets = unique_object_sets(&run_stream(&mut engine, &stream));
        assert!(sets.contains(&vec![oid(4), oid(5)]), "{sets:?}");
        assert!(sets.contains(&vec![oid(6), oid(7)]), "{sets:?}");

        let c3 = Constraints::new(3, 4, 2, 2).unwrap();
        let mut engine = BaselineEngine::new(EngineConfig::new(c3));
        let sets = unique_object_sets(&run_stream(&mut engine, &stream));
        assert!(sets.contains(&vec![oid(4), oid(5), oid(6)]), "{sets:?}");
    }

    #[test]
    fn gap_exceeding_g_splits_patterns() {
        // Together at times 0..=3 and 8..=11, gap 5 > G=2: each episode
        // yields the pattern, but no sequence spans the gap.
        let c = Constraints::new(2, 4, 2, 2).unwrap();
        let mut engine = BaselineEngine::new(EngineConfig::new(c));
        let mut stream = Vec::new();
        for t in 0..12u32 {
            let together = t <= 3 || t >= 8;
            stream.push(if together {
                cs(t, &[&[1, 2]])
            } else {
                cs(t, &[])
            });
        }
        let patterns = run_stream(&mut engine, &stream);
        assert!(!patterns.is_empty());
        for p in &patterns {
            assert!(p.satisfies(&c));
            let times = p.times.times();
            let all_early = times.iter().all(|t| t.0 <= 3);
            let all_late = times.iter().all(|t| t.0 >= 8);
            assert!(all_early || all_late, "sequence spans the gap: {p}");
        }
    }

    #[test]
    fn oversized_partition_is_skipped_and_counted() {
        let c = Constraints::new(2, 2, 1, 2).unwrap();
        let mut cfg = EngineConfig::new(c);
        cfg.max_baseline_partition = 4;
        let mut engine = BaselineEngine::new(cfg);
        let big: Vec<u32> = (1..=10).collect();
        let refs: Vec<&[u32]> = vec![&big];
        let stream: Vec<ClusterSnapshot> = (0..4).map(|t| cs(t, &refs)).collect();
        let _ = run_stream(&mut engine, &stream);
        assert!(engine.skipped_partitions() > 0);
    }

    #[test]
    fn guard_beyond_a_mask_still_skips_wide_partitions() {
        // A guard of 64 would shift a u64 by 64; the engine caps it at 63.
        let c = Constraints::new(2, 2, 1, 2).unwrap();
        let mut cfg = EngineConfig::new(c);
        cfg.max_baseline_partition = 64;
        let mut engine = BaselineEngine::new(cfg);
        let members: Vec<ObjectId> = (2..=65).map(ObjectId).collect();
        for t in 0..3 {
            let part = crate::partition::Partition {
                owner: oid(1),
                members: members.clone(),
            };
            assert!(engine.push_partitions(Timestamp(t), vec![part]).is_empty());
        }
        assert!(engine.finish().is_empty());
        assert_eq!(engine.skipped_partitions(), 3);
    }

    #[test]
    fn no_patterns_below_duration() {
        let c = Constraints::new(2, 4, 2, 2).unwrap();
        let mut engine = BaselineEngine::new(EngineConfig::new(c));
        let stream: Vec<ClusterSnapshot> = (0..3).map(|t| cs(t, &[&[1, 2]])).collect();
        let patterns = run_stream(&mut engine, &stream);
        assert!(patterns.is_empty(), "{patterns:?}");
    }
}
