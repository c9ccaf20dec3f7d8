//! Cross-engine equivalence: BA ≡ FBA ≡ VBA ≡ exhaustive oracle on random
//! cluster streams, under the default (Definition-4 / subsequence)
//! semantics; plus bit-string validity ≡ the tiny exhaustive subset search.
//! FBA is further pinned pattern for pattern: against BA under subsequence
//! semantics, against its earlier per-member `BitString` implementation
//! (kept below as an oracle) under the paper's greedy semantics, against
//! VBA on partitions wider than one 64-bit word, and across a mid-stream
//! checkpoint/restore.

use icpe_pattern::partition::Partition;
use icpe_pattern::reference::ExhaustiveMiner;
use icpe_pattern::runs::{exhaustive_subsequence_valid, runs_from_times, runs_valid};
use icpe_pattern::{
    id_partitions, unique_object_sets, BaselineEngine, BitString, EngineConfig, FbaEngine,
    PatternEngine, Semantics, VbaEngine,
};
use icpe_types::{
    ClusterSnapshot, Constraints, EngineCheckpoint, ObjectId, Pattern, TimeSequence, Timestamp,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A random dense cluster stream over a small population: at each tick,
/// objects are grouped by a random assignment; group 0 means "noise".
fn arb_stream(
    num_objects: u32,
    num_groups: u32,
    ticks: usize,
) -> impl Strategy<Value = Vec<ClusterSnapshot>> {
    prop::collection::vec(
        prop::collection::vec(0..=num_groups, num_objects as usize),
        1..ticks,
    )
    .prop_map(move |assignments| {
        assignments
            .into_iter()
            .enumerate()
            .map(|(t, assign)| {
                let mut groups: Vec<Vec<ObjectId>> = vec![Vec::new(); num_groups as usize];
                for (obj, &g) in assign.iter().enumerate() {
                    if g > 0 {
                        groups[(g - 1) as usize].push(ObjectId(obj as u32));
                    }
                }
                ClusterSnapshot::from_groups(
                    Timestamp(t as u32),
                    groups.into_iter().filter(|g| g.len() >= 2),
                )
            })
            .collect()
    })
}

fn run_engine(engine: &mut dyn PatternEngine, stream: &[ClusterSnapshot]) -> Vec<Pattern> {
    let mut out = Vec::new();
    for s in stream {
        out.extend(engine.push(s));
    }
    out.extend(engine.finish());
    out
}

/// A pattern multiset in canonical order: `(objects, times)`, duplicates
/// kept.
fn multiset(patterns: &[Pattern]) -> Vec<(Vec<u32>, Vec<u32>)> {
    let mut out: Vec<(Vec<u32>, Vec<u32>)> = patterns
        .iter()
        .map(|p| {
            (
                p.objects.iter().map(|o| o.0).collect(),
                p.times.times().iter().map(|t| t.0).collect(),
            )
        })
        .collect();
    out.sort();
    out
}

/// FBA as it stood before the row arena, kept as an oracle: every window
/// is rebuilt from the whole stream, every member gets its own heap
/// [`BitString`], and every candidate set is a `Vec` with a cloned string.
/// Windows start at each of an owner's partitions and run η snapshots, cut
/// short by the end of the stream.
fn fba_oracle(stream: &[ClusterSnapshot], config: &EngineConfig) -> Vec<Pattern> {
    let c = &config.constraints;
    let eta = c.eta() as u32;
    let Some(last) = stream.last().map(|s| s.time.0) else {
        return Vec::new();
    };
    let mut history: BTreeMap<ObjectId, BTreeMap<u32, Vec<ObjectId>>> = BTreeMap::new();
    for s in stream {
        for p in id_partitions(s, c.m()) {
            history
                .entry(p.owner)
                .or_default()
                .insert(s.time.0, p.members);
        }
    }
    let mut out = Vec::new();
    for (&owner, rows) in &history {
        for (&start, members) in rows {
            let end = last.min(start + eta - 1);
            let window_len = (end - start + 1) as usize;
            let strings: Vec<BitString> = members
                .iter()
                .map(|m| {
                    let mut b = BitString::zeros(window_len);
                    for (j, t) in (start..=end).enumerate() {
                        if rows.get(&t).is_some_and(|r| r.binary_search(m).is_ok()) {
                            b.set(j);
                        }
                    }
                    b
                })
                .collect();
            let candidates: Vec<usize> = (0..members.len())
                .filter(|&i| strings[i].satisfies_klg(c.k(), c.l(), c.g(), config.semantics))
                .collect();
            if candidates.len() < c.m() - 1 {
                continue;
            }
            let mut level: Vec<(Vec<usize>, BitString)> = Vec::new();
            combinations(&candidates, c.m() - 1, 0, &mut Vec::new(), &mut |chosen| {
                let mut bits = strings[chosen[0]].clone();
                for &i in &chosen[1..] {
                    bits.and_assign(&strings[i]);
                }
                level.push((chosen.to_vec(), bits));
            });
            while !level.is_empty() {
                let mut next = Vec::new();
                for (set, bits) in level {
                    let Some(witness) = bits.witness(c.k(), c.l(), c.g(), config.semantics) else {
                        continue;
                    };
                    let mut objects: Vec<ObjectId> = set.iter().map(|&i| members[i]).collect();
                    objects.push(owner);
                    let times = TimeSequence::from_raw(witness.into_iter().map(|j| start + j))
                        .expect("witness offsets are strictly increasing");
                    out.push(Pattern::new(objects, times));
                    let max_idx = *set.last().unwrap();
                    for &cand in candidates.iter().filter(|&&i| i > max_idx) {
                        let mut ext_set = set.clone();
                        ext_set.push(cand);
                        next.push((ext_set, bits.and(&strings[cand])));
                    }
                }
                level = next;
            }
        }
    }
    out
}

/// Calls `f` for every size-`k` combination of `pool` (ascending order).
fn combinations(
    pool: &[usize],
    k: usize,
    from: usize,
    combo: &mut Vec<usize>,
    f: &mut impl FnMut(&[usize]),
) {
    if combo.len() == k {
        f(combo);
        return;
    }
    for i in from..pool.len() {
        if pool.len() - i < k - combo.len() {
            break;
        }
        combo.push(pool[i]);
        combinations(pool, k, i + 1, combo, f);
        combo.pop();
    }
}

/// One moving group whose members each drop out now and then: the present
/// members form one cluster per tick. Rows of long runs broken by short
/// ones are common here, which is where the paper's greedy check and the
/// subsequence check part ways.
fn arb_dropout_stream(
    num_objects: usize,
    ticks: usize,
) -> impl Strategy<Value = Vec<ClusterSnapshot>> {
    prop::collection::vec(
        prop::collection::vec(prop::bool::weighted(0.75), num_objects),
        1..ticks,
    )
    .prop_map(|present| {
        present
            .into_iter()
            .enumerate()
            .map(|(t, here)| {
                let group: Vec<ObjectId> = (0..here.len() as u32)
                    .filter(|&o| here[o as usize])
                    .map(ObjectId)
                    .collect();
                ClusterSnapshot::from_groups(Timestamp(t as u32), [group])
            })
            .collect()
    })
}

/// Streams whose owner 0 has a partition of 65–80 members at one tick:
/// ids `0..=width` are one cluster there. At every other tick a small
/// population — the four lowest and the four highest of those ids — is
/// grouped at random (group 0 is noise), so the patterns the wide tick
/// takes part in name members at row indices past 63.
fn arb_wide_stream() -> impl Strategy<Value = Vec<ClusterSnapshot>> {
    (
        65u32..=80,
        0usize..64,
        prop::collection::vec(prop::collection::vec(0u32..=2, 8), 2..14),
    )
        .prop_map(|(width, wide_at, assignments)| {
            let wide_at = wide_at % assignments.len();
            let small: Vec<u32> = (0..4).chain(width - 3..=width).collect();
            assignments
                .into_iter()
                .enumerate()
                .map(|(t, assign)| {
                    let time = Timestamp(t as u32);
                    if t == wide_at {
                        return ClusterSnapshot::from_groups(
                            time,
                            [(0..=width).map(ObjectId).collect::<Vec<_>>()],
                        );
                    }
                    let mut groups = vec![Vec::new(); 2];
                    for (&id, &g) in small.iter().zip(&assign) {
                        if g > 0 {
                            groups[(g - 1) as usize].push(ObjectId(id));
                        }
                    }
                    ClusterSnapshot::from_groups(time, groups.into_iter().filter(|g| g.len() >= 2))
                })
                .collect()
        })
}

fn arb_constraints() -> impl Strategy<Value = Constraints> {
    (2usize..4, 2usize..6, 1usize..3, 1u32..4).prop_map(|(m, k, l, g)| {
        let l = l.min(k);
        Constraints::new(m, k, l, g).expect("valid constraints")
    })
}

/// Constraints under which the paper's greedy check and the subsequence
/// check can disagree: skipping a short run between two long ones leaves a
/// gap of at least 4, so that needs `L ≥ 2` and `G ≥ 4`.
fn arb_gapped_constraints() -> impl Strategy<Value = Constraints> {
    (2usize..4, 2usize..7, 1usize..4, 1u32..7).prop_map(|(m, k, l, g)| {
        let l = l.min(k);
        Constraints::new(m, k, l, g).expect("valid constraints")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The central theorem of the reproduction: all three streaming engines
    /// report exactly the oracle's object sets under subsequence semantics.
    #[test]
    fn engines_agree_with_oracle(
        stream in arb_stream(7, 2, 14),
        constraints in arb_constraints(),
    ) {
        let config = EngineConfig::new(constraints);
        let mut ba = BaselineEngine::new(config);
        let mut fba = FbaEngine::new(config);
        let mut vba = VbaEngine::new(config);
        let ba_sets = unique_object_sets(&run_engine(&mut ba, &stream));
        let fba_sets = unique_object_sets(&run_engine(&mut fba, &stream));
        let vba_sets = unique_object_sets(&run_engine(&mut vba, &stream));

        let mut miner = ExhaustiveMiner::new();
        for s in &stream {
            miner.push(s.clone());
        }
        let oracle_sets = miner.mine_object_sets(&constraints, Semantics::Subsequence);

        prop_assert_eq!(&ba_sets, &oracle_sets, "BA disagrees with oracle");
        prop_assert_eq!(&fba_sets, &oracle_sets, "FBA disagrees with oracle");
        prop_assert_eq!(&vba_sets, &oracle_sets, "VBA disagrees with oracle");
    }

    /// Every reported pattern satisfies the constraints it was mined under,
    /// and its witnessing times are genuinely co-clustered times.
    #[test]
    fn reported_patterns_are_sound(
        stream in arb_stream(6, 2, 12),
        constraints in arb_constraints(),
    ) {
        let config = EngineConfig::new(constraints);
        for engine in [&mut BaselineEngine::new(config) as &mut dyn PatternEngine,
                       &mut FbaEngine::new(config),
                       &mut VbaEngine::new(config)] {
            let name = engine.name();
            for p in run_engine(engine, &stream) {
                prop_assert!(p.satisfies(&constraints), "{name}: {p}");
                for t in p.times.times() {
                    let snap = stream.iter().find(|s| s.time == *t)
                        .expect("witness time within stream");
                    let together = snap.clusters.iter()
                        .any(|c| p.objects.iter().all(|&o| c.contains(o)));
                    prop_assert!(together, "{name}: {p} not co-clustered at {t}");
                }
            }
        }
    }

    /// Bit-run validity equals the exhaustive subset search (the independent
    /// definition of Definition-4 semantics).
    #[test]
    fn subsequence_validity_matches_exhaustive(
        bits in prop::collection::vec(prop::bool::ANY, 1..16),
        k in 1usize..6,
        l in 1usize..4,
        g in 1u32..4,
    ) {
        let times: Vec<u32> = bits.iter().enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i as u32)
            .collect();
        let fast = runs_valid(&runs_from_times(&times), k, l, g, Semantics::Subsequence);
        let slow = exhaustive_subsequence_valid(&times, k, l, g);
        prop_assert_eq!(fast, slow, "times {:?} k={} l={} g={}", times, k, l, g);
    }

    /// PaperGreedy never reports more than Subsequence (it is a strict
    /// subset relation: every greedy-valid candidate is subsequence-valid).
    /// `g` reaches past 3: below 4 the two semantics cannot differ.
    #[test]
    fn greedy_is_a_subset_of_subsequence(
        bits in prop::collection::vec(prop::bool::ANY, 1..20),
        k in 1usize..6,
        l in 1usize..4,
        g in 1u32..7,
    ) {
        let times: Vec<u32> = bits.iter().enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i as u32)
            .collect();
        let runs = runs_from_times(&times);
        if runs_valid(&runs, k, l, g, Semantics::PaperGreedy) {
            prop_assert!(runs_valid(&runs, k, l, g, Semantics::Subsequence));
        }
    }

    /// FBA reports exactly BA's pattern multiset — object sets, witness
    /// times and duplicates — under subsequence semantics.
    #[test]
    fn fba_equals_baseline_pattern_multiset(
        stream in arb_stream(8, 2, 16),
        constraints in arb_constraints(),
    ) {
        let config = EngineConfig::new(constraints);
        let ba = run_engine(&mut BaselineEngine::new(config), &stream);
        let fba = run_engine(&mut FbaEngine::new(config), &stream);
        prop_assert_eq!(multiset(&fba), multiset(&ba));
    }

    /// Partitions wider than one word: FBA's object sets equal VBA's (and
    /// its patterns equal the oracle's).
    #[test]
    fn fba_equals_vba_on_partitions_wider_than_a_word(
        stream in arb_wide_stream(),
        constraints in arb_constraints(),
    ) {
        let config = EngineConfig::new(constraints);
        let fba = run_engine(&mut FbaEngine::new(config), &stream);
        let vba = run_engine(&mut VbaEngine::new(config), &stream);
        prop_assert_eq!(unique_object_sets(&fba), unique_object_sets(&vba));
        prop_assert_eq!(multiset(&fba), multiset(&fba_oracle(&stream, &config)));
    }

    /// Checkpointing FBA mid-stream and restoring it — whole, or split
    /// across two subtasks by owner as a resharded restore does — then
    /// feeding the rest reports the uninterrupted run's pattern multiset.
    #[test]
    fn fba_checkpoint_restore_mid_stream_equals_uninterrupted(
        stream in arb_stream(8, 2, 18),
        constraints in arb_constraints(),
        cut_frac in 0usize..=100,
    ) {
        let config = EngineConfig::new(constraints);
        let want = run_engine(&mut FbaEngine::new(config), &stream);
        let cut = stream.len() * cut_frac / 100;

        let mut head = FbaEngine::new(config);
        let mut got: Vec<Pattern> = stream[..cut].iter().flat_map(|s| head.push(s)).collect();
        let json = serde_json::to_string(&head.checkpoint()).unwrap();
        let ckpt: EngineCheckpoint = serde_json::from_str(&json).unwrap();

        let mut whole = FbaEngine::from_checkpoint(config, &ckpt, |_| true).unwrap();
        let mut resumed = got.clone();
        resumed.extend(stream[cut..].iter().flat_map(|s| whole.push(s)));
        resumed.extend(whole.finish());
        prop_assert_eq!(multiset(&resumed), multiset(&want));

        let mut halves: Vec<FbaEngine> = (0..2)
            .map(|i| FbaEngine::from_checkpoint(config, &ckpt, |o| o.0 % 2 == i).unwrap())
            .collect();
        for s in &stream[cut..] {
            let parts = id_partitions(s, constraints.m());
            for (i, half) in halves.iter_mut().enumerate() {
                let mine: Vec<Partition> =
                    parts.iter().filter(|p| p.owner.0 % 2 == i as u32).cloned().collect();
                got.extend(half.push_partitions(s.time, mine));
            }
        }
        for half in &mut halves {
            got.extend(half.finish());
        }
        prop_assert_eq!(multiset(&got), multiset(&want));
    }
}

proptest! {
    // Greedy and subsequence validity part ways only on rows with a short
    // run between long ones, so this property runs more cases.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Under the paper's greedy semantics (where the candidate filter is
    /// lossy, so BA is no reference) FBA reports exactly what its earlier
    /// implementation did.
    #[test]
    fn fba_equals_previous_fba_under_paper_greedy(
        stream in arb_stream(8, 2, 18),
        dropouts in arb_dropout_stream(6, 18),
        constraints in arb_gapped_constraints(),
    ) {
        let config = EngineConfig::new(constraints).with_semantics(Semantics::PaperGreedy);
        for stream in [&stream, &dropouts] {
            let fba = run_engine(&mut FbaEngine::new(config), stream);
            prop_assert_eq!(multiset(&fba), multiset(&fba_oracle(stream, &config)));
        }
    }
}
