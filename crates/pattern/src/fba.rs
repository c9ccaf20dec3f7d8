//! **FBA** — Fixed-length Bit Compression based Algorithm (Algorithm 4).
//!
//! Per window: build an η-bit string per partition member (Definition 13),
//! keep only members whose own string already satisfies `(K, L, G)` (the
//! candidate set `C`), then enumerate patterns apriori-style starting at
//! cardinality `M − 1`, combining candidates with word-parallel `AND`s.
//! Storage drops from `O(2^n)` to `O(η·n)`; enumeration from `O(2^n)` to
//! `O(|R|·|C| + C(|C|, M−1))`.
//!
//! ## The row arena
//!
//! A window is processed without heap allocation apart from building the
//! patterns it reports. The window is read in place from the owner's ring of
//! partitions ([`crate::engine`]) and transposed into one reused
//! `Vec<u64>`: one row of `⌈η/64⌉` words per member of the window's first
//! partition. The member's index is a row number, not a bit position, so
//! there is no cap on the partition width and one code path serves every
//! η. Validity is decided by extracting runs from the words into a reused
//! `Vec<Run>` and calling [`runs_valid`] / [`runs_witness`] — the same
//! implementation BA, VBA and the oracle use, under both [`Semantics`].
//!
//! The apriori levels live in two pairs of flat arenas (candidate positions
//! plus AND-ed words) that swap per level. Sets are visited breadth-first
//! and, within a level, in lexicographic order of their candidate indices.
//! Two prunes skip only sets that could not be reported: a set whose
//! AND has fewer than `K` ones is never stored (no witness has fewer than
//! `K` times, under either semantics, and ANDing more members only removes
//! ones), and neither is a level-`(M − 1)` prefix with fewer than `K` ones.

use crate::bitstring::runs_of_words;
use crate::engine::{EngineConfig, PatternEngine, WindowState, WindowView};
use crate::runs::{runs_valid, runs_witness, Run, Semantics};
use icpe_types::{CheckpointError, Constraints, EngineCheckpoint, ObjectId, Pattern, TimeSequence};

/// The FBA pattern-enumeration engine.
#[derive(Debug)]
pub struct FbaEngine {
    config: EngineConfig,
    windows: WindowState,
    kernel: Kernel,
}

impl FbaEngine {
    /// Creates the engine.
    pub fn new(config: EngineConfig) -> Self {
        FbaEngine {
            windows: WindowState::new(&config.constraints),
            kernel: Kernel::default(),
            config,
        }
    }

    /// Rebuilds an FBA engine from a checkpoint, loading only owners for
    /// which `keep` returns true (restore-time resharding).
    pub fn from_checkpoint(
        config: EngineConfig,
        ckpt: &EngineCheckpoint,
        keep: impl Fn(ObjectId) -> bool,
    ) -> Result<Self, CheckpointError> {
        if ckpt.kind != "FBA" {
            return Err(CheckpointError::EngineMismatch {
                checkpoint: ckpt.kind.clone(),
                config: "FBA".into(),
            });
        }
        Ok(FbaEngine {
            windows: WindowState::restore(
                &config.constraints,
                ckpt.last_time,
                &ckpt.window_owners,
                keep,
            ),
            kernel: Kernel::default(),
            config,
        })
    }
}

/// The per-window scratch of FBA, reused across windows. Under
/// [`Semantics::PaperGreedy`] the candidate filter is the paper's literal
/// rule and is knowingly lossy; see the crate docs.
#[derive(Debug, Default)]
struct Kernel {
    /// Member rows, `stride` words each: row `i` is `B[oᵢ]` (Definition 13)
    /// for the `i`-th member of the window's first partition.
    rows: Vec<u64>,
    /// Member indices whose own row is valid (the candidate set `C`),
    /// ascending. Sets below name candidates by position in this list.
    cands: Vec<u32>,
    /// Run scratch for every validity check.
    runs: Vec<Run>,
    /// Level `M − 1` generation: the current combination (candidate
    /// positions) and the AND of each of its prefixes, `stride` words per
    /// depth.
    combo: Vec<u32>,
    prefix: Vec<u64>,
    /// The level being visited and the level being built: each set is its
    /// candidate positions (the level's set size apiece) and its AND-ed
    /// words (`stride` apiece), in visiting order.
    level_sets: Vec<u32>,
    level_bits: Vec<u64>,
    next_sets: Vec<u32>,
    next_bits: Vec<u64>,
}

/// What a visit needs to know about the window besides the set itself.
struct Window<'a> {
    rows: &'a [u64],
    stride: usize,
    cands: &'a [u32],
    members: &'a [ObjectId],
    owner: ObjectId,
    start: u32,
    constraints: &'a Constraints,
    semantics: Semantics,
}

impl Window<'_> {
    /// The row of the candidate at `position` in the candidate list.
    #[inline]
    fn row(&self, position: u32) -> &[u64] {
        let i = self.cands[position as usize] as usize * self.stride;
        &self.rows[i..i + self.stride]
    }

    /// Reports `set` if its AND `bits` has a witness, and then queues every
    /// extension by a later candidate whose AND keeps at least `K` ones.
    fn visit(
        &self,
        set: &[u32],
        bits: &[u64],
        runs: &mut Vec<Run>,
        next_sets: &mut Vec<u32>,
        next_bits: &mut Vec<u64>,
        out: &mut Vec<Pattern>,
    ) {
        let c = self.constraints;
        runs_of_words(bits, runs);
        let Some(witness) = runs_witness(runs, c.k(), c.l(), c.g(), self.semantics) else {
            return;
        };
        let objects: Vec<ObjectId> = set
            .iter()
            .map(|&p| self.members[self.cands[p as usize] as usize])
            .chain(std::iter::once(self.owner))
            .collect();
        let times = TimeSequence::from_raw(witness.into_iter().map(|j| self.start + j))
            .expect("witness offsets are strictly increasing");
        out.push(Pattern::new(objects, times));

        let last = *set.last().expect("sets are never empty");
        for q in last + 1..self.cands.len() as u32 {
            let at = next_bits.len();
            next_bits.extend(bits.iter().zip(self.row(q)).map(|(a, b)| a & b));
            if ones(&next_bits[at..]) < c.k() {
                next_bits.truncate(at);
                continue;
            }
            next_sets.extend_from_slice(set);
            next_sets.push(q);
        }
    }
}

/// Number of 1-bits in `words`.
#[inline]
fn ones(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

impl Kernel {
    /// Enumerates one window's patterns into `out`.
    fn enumerate(&mut self, config: &EngineConfig, view: WindowView<'_>, out: &mut Vec<Pattern>) {
        let c = &config.constraints;
        let need = c.m() - 1;
        let members = view.members();
        if members.len() < need {
            return;
        }
        let stride = (view.len as usize).div_ceil(64);

        // Definition 13: B[oᵢ][j] = 1 iff owner and oᵢ share a cluster at
        // offset j (the transpose of the window's rows).
        self.rows.clear();
        self.rows.resize(members.len() * stride, 0);
        for (j, row) in view.rows() {
            let (word, bit) = (j / 64, 1u64 << (j % 64));
            let rows = &mut self.rows;
            view.for_each_member_in(row, |i| rows[i * stride + word] |= bit);
        }

        // Candidate filtering: B[oᵢ] must itself satisfy (K, L, G).
        self.cands.clear();
        for (i, row) in self.rows.chunks_exact(stride).enumerate() {
            if ones(row) < c.k() {
                continue;
            }
            runs_of_words(row, &mut self.runs);
            if runs_valid(&self.runs, c.k(), c.l(), c.g(), config.semantics) {
                self.cands.push(i as u32);
            }
        }
        if self.cands.len() < need {
            return;
        }

        let Kernel {
            rows,
            cands,
            runs,
            combo,
            prefix,
            level_sets,
            level_bits,
            next_sets,
            next_bits,
        } = self;
        let window = Window {
            rows,
            stride,
            cands,
            members,
            owner: view.owner,
            start: view.start,
            constraints: c,
            semantics: config.semantics,
        };
        next_sets.clear();
        next_bits.clear();

        // Level M − 1: every combination of `need` candidates in
        // lexicographic order, ANDed prefix by prefix.
        combo.clear();
        prefix.clear();
        prefix.resize(need * stride, 0);
        let n = cands.len() as u32;
        let mut p = 0u32;
        loop {
            let depth = combo.len();
            if (p + (need - depth) as u32) > n {
                // Too few candidates left for this depth: backtrack.
                let Some(last) = combo.pop() else {
                    break;
                };
                p = last + 1;
                continue;
            }
            let (done, rest) = prefix.split_at_mut(depth * stride);
            let acc = &mut rest[..stride];
            let row = window.row(p);
            if depth == 0 {
                acc.copy_from_slice(row);
            } else {
                let parent = &done[(depth - 1) * stride..];
                for ((a, x), y) in acc.iter_mut().zip(parent).zip(row) {
                    *a = x & y;
                }
            }
            if ones(acc) < c.k() {
                p += 1;
                continue;
            }
            combo.push(p);
            if combo.len() == need {
                window.visit(combo, acc, runs, next_sets, next_bits, out);
                combo.pop();
            }
            p += 1;
        }

        // Levels M, M + 1, …: visit the queued extensions level by level.
        let mut size = need + 1;
        while !next_sets.is_empty() {
            std::mem::swap(level_sets, next_sets);
            std::mem::swap(level_bits, next_bits);
            next_sets.clear();
            next_bits.clear();
            for (set, bits) in level_sets
                .chunks_exact(size)
                .zip(level_bits.chunks_exact(stride))
            {
                window.visit(set, bits, runs, next_sets, next_bits, out);
            }
            size += 1;
        }
    }
}

impl PatternEngine for FbaEngine {
    fn name(&self) -> &'static str {
        "FBA"
    }

    fn significance(&self) -> usize {
        self.config.constraints.m()
    }

    fn push_partitions(
        &mut self,
        time: icpe_types::Timestamp,
        partitions: Vec<crate::partition::Partition>,
    ) -> Vec<Pattern> {
        let FbaEngine {
            config,
            windows,
            kernel,
        } = self;
        let mut out = Vec::new();
        windows.push_partitions(time, partitions, |view| {
            kernel.enumerate(config, view, &mut out)
        });
        out
    }

    fn finish(&mut self) -> Vec<Pattern> {
        let FbaEngine {
            config,
            windows,
            kernel,
        } = self;
        let mut out = Vec::new();
        windows.finish(|view| kernel.enumerate(config, view, &mut out));
        out
    }

    fn checkpoint(&self) -> EngineCheckpoint {
        let (last_time, window_owners) = self.windows.checkpoint();
        EngineCheckpoint {
            kind: "FBA".into(),
            last_time,
            skipped_partitions: 0,
            window_owners,
            vba_owners: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::unique_object_sets;
    use crate::partition::Partition;
    use icpe_types::{ClusterSnapshot, Timestamp};

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

    fn run_stream(engine: &mut FbaEngine, stream: &[ClusterSnapshot]) -> Vec<Pattern> {
        let mut out = Vec::new();
        for s in stream {
            out.extend(engine.push(s));
        }
        out.extend(engine.finish());
        out
    }

    #[test]
    fn detects_persistent_group() {
        let c = Constraints::new(3, 4, 2, 2).unwrap();
        let mut engine = FbaEngine::new(EngineConfig::new(c));
        let stream: Vec<ClusterSnapshot> = (0..8).map(|t| cs(t, &[&[1, 2, 3]])).collect();
        let patterns = run_stream(&mut engine, &stream);
        let sets = unique_object_sets(&patterns);
        assert!(sets.contains(&vec![oid(1), oid(2), oid(3)]));
        for p in &patterns {
            assert!(p.satisfies(&c));
        }
    }

    #[test]
    fn paper_fig8_enumeration() {
        // Subtask of o4 at time 3, P3(o4) = {o5,o6,o7,o8}; bits per Fig. 8:
        // B[o5]=111111, B[o6]=110111, B[o7]=110011, B[o8]=100000 over times
        // 3..=8. The paper runs this with G = 2, but o7's times have a
        // neighboring difference of 3, so under a strict Definition 3 the
        // figure's candidate set requires G = 3 (see DESIGN.md); the
        // structure of the example is otherwise unchanged: o5–o7 are
        // candidates, o8 is filtered out, and every combination with o4 is
        // a pattern.
        let bits = |s: &str| -> Vec<bool> { s.chars().map(|c| c == '1').collect() };
        let b5 = bits("111111");
        let b6 = bits("110111");
        let b7 = bits("110011");
        let b8 = bits("100000");
        let mut stream = Vec::new();
        for (j, t) in (3u32..=8).enumerate() {
            let mut cluster: Vec<u32> = vec![4];
            if b5[j] {
                cluster.push(5);
            }
            if b6[j] {
                cluster.push(6);
            }
            if b7[j] {
                cluster.push(7);
            }
            if b8[j] {
                cluster.push(8);
            }
            stream.push(cs(t, &[&cluster]));
        }
        let c = Constraints::new(3, 4, 2, 3).unwrap();
        let mut engine = FbaEngine::new(EngineConfig::new(c));
        let sets = unique_object_sets(&run_stream(&mut engine, &stream));
        // Patterns of size ≥ 3 containing o4:
        assert!(sets.contains(&vec![oid(4), oid(5), oid(6)]), "{sets:?}");
        assert!(sets.contains(&vec![oid(4), oid(5), oid(7)]), "{sets:?}");
        assert!(sets.contains(&vec![oid(4), oid(6), oid(7)]), "{sets:?}");
        assert!(
            sets.contains(&vec![oid(4), oid(5), oid(6), oid(7)]),
            "{sets:?}"
        );
        // o8's string 100000 fails (K,L,G); no pattern contains o8.
        assert!(sets.iter().all(|s| !s.contains(&oid(8))));
    }

    #[test]
    fn m_equals_two_enumerates_singletons() {
        let c = Constraints::new(2, 3, 1, 2).unwrap();
        let mut engine = FbaEngine::new(EngineConfig::new(c));
        let stream: Vec<ClusterSnapshot> = (0..6).map(|t| cs(t, &[&[7, 9]])).collect();
        let sets = unique_object_sets(&run_stream(&mut engine, &stream));
        assert!(sets.contains(&vec![oid(7), oid(9)]));
    }

    #[test]
    fn no_false_patterns_on_disjoint_groups() {
        let c = Constraints::new(2, 4, 2, 2).unwrap();
        let mut engine = FbaEngine::new(EngineConfig::new(c));
        // {1,2} and {3,4} never share a cluster.
        let stream: Vec<ClusterSnapshot> = (0..8).map(|t| cs(t, &[&[1, 2], &[3, 4]])).collect();
        let sets = unique_object_sets(&run_stream(&mut engine, &stream));
        for s in &sets {
            assert!(
                s == &vec![oid(1), oid(2)] || s == &vec![oid(3), oid(4)],
                "unexpected pattern {s:?}"
            );
        }
        assert_eq!(sets.len(), 2);
    }

    /// The object sets of the start-0 window of owner 1 with members
    /// `{2, 5, 7, 9}` co-clustered at every offset, in report order.
    fn report_order(m: usize) -> Vec<Vec<u32>> {
        let c = Constraints::new(m, 2, 1, 1).unwrap();
        let mut engine = FbaEngine::new(EngineConfig::new(c));
        let part = || Partition {
            owner: oid(1),
            members: [2, 5, 7, 9].map(ObjectId).to_vec(),
        };
        let eta = c.eta() as u32;
        let mut out = Vec::new();
        for t in 0..eta {
            out = engine.push_partitions(Timestamp(t), vec![part()]);
        }
        out.iter()
            .map(|p| p.objects.iter().map(|o| o.0).filter(|&o| o != 1).collect())
            .collect()
    }

    #[test]
    fn combinations_generator_is_exhaustive_and_canonical() {
        // Breadth first, lexicographic within a level, each set once.
        let want: Vec<Vec<u32>> = vec![
            vec![2, 5],
            vec![2, 7],
            vec![2, 9],
            vec![5, 7],
            vec![5, 9],
            vec![7, 9],
            vec![2, 5, 7],
            vec![2, 5, 9],
            vec![2, 7, 9],
            vec![5, 7, 9],
            vec![2, 5, 7, 9],
        ];
        assert_eq!(report_order(3), want);
        // M = 2: the first level is the singletons.
        let got = report_order(2);
        assert_eq!(got.len(), 15);
        assert_eq!(got[..4], [vec![2], vec![5], vec![7], vec![9]]);
        assert_eq!(got[4..], want[..]);
    }

    #[test]
    fn partitions_wider_than_a_word_report_no_phantoms() {
        // Owner 1's partition at t = 0 has 69 members; from t = 1 on only
        // 66, 67 and 68 (member indices 64–66) stay with it. A bit-per-
        // member mask wrapped those indices onto members 2–4.
        let c = Constraints::new(4, 8, 4, 2).unwrap();
        let mut stream = vec![cs(0, &[&(1..=70).collect::<Vec<u32>>()])];
        stream.extend((1..=13).map(|t| cs(t, &[&[1, 66, 67, 68]])));
        let mut fba = FbaEngine::new(EngineConfig::new(c));
        let sets = unique_object_sets(&run_stream(&mut fba, &stream));
        let mut vba = crate::VbaEngine::new(EngineConfig::new(c));
        let mut vba_patterns = Vec::new();
        for s in &stream {
            vba_patterns.extend(vba.push(s));
        }
        vba_patterns.extend(vba.finish());
        assert_eq!(sets, vec![vec![oid(1), oid(66), oid(67), oid(68)]]);
        assert_eq!(sets, unique_object_sets(&vba_patterns));
    }

    #[test]
    fn windows_longer_than_a_word_span_several_words() {
        // η = 75 + 2 − 1 = 76 with K = 75, L = 2, G = 1: every row is two
        // words, and the only witness crosses the word boundary.
        let c = Constraints::new(3, 75, 2, 1).unwrap();
        assert!(c.eta() > 64);
        let mut engine = FbaEngine::new(EngineConfig::new(c));
        let stream: Vec<ClusterSnapshot> = (0..80)
            .map(|t| {
                if (3..78).contains(&t) {
                    cs(t, &[&[1, 2, 3]])
                } else {
                    cs(t, &[])
                }
            })
            .collect();
        let patterns = run_stream(&mut engine, &stream);
        assert_eq!(
            unique_object_sets(&patterns),
            vec![vec![oid(1), oid(2), oid(3)]]
        );
        for p in &patterns {
            assert!(p.satisfies(&c), "{p}");
            assert_eq!(p.times.times().first(), Some(&Timestamp(3)));
        }
    }
}
