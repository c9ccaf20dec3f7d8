//! The correctness gate: the serial oracle (`TimeAligner` + `IcpeEngine`)
//! on the same stamped records, and the multiset comparison every measured
//! run must pass.

use icpe_core::{IcpeConfig, IcpeEngine};
use icpe_runtime::TimeAligner;
use icpe_types::{GpsRecord, Pattern};
use std::time::Instant;

/// A pattern as compared: object ids and witnessing ticks.
pub type PatternKey = (Vec<u32>, Vec<u32>);

pub fn key(p: &Pattern) -> PatternKey {
    (
        p.objects.iter().map(|o| o.0).collect(),
        p.times.times().iter().map(|t| t.0).collect(),
    )
}

/// What a correct run must reproduce.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// The sealed pattern multiset, sorted (duplicates kept).
    pub patterns: Vec<PatternKey>,
    /// Records the aligner dropped as late.
    pub late: u64,
    /// Wall time of the serial run (the single-threaded baseline).
    pub elapsed_s: f64,
}

/// Runs the serial oracle over `records` in order.
pub fn run(config: &IcpeConfig, records: &[GpsRecord]) -> Oracle {
    let started = Instant::now();
    let mut aligner = TimeAligner::new(config.aligner);
    let mut engine = IcpeEngine::new(config.clone());
    let mut patterns = Vec::new();
    let mut sealed = Vec::new();
    for &r in records {
        aligner.push_into(r, &mut sealed);
        for snapshot in sealed.drain(..) {
            patterns.extend(engine.push_snapshot(snapshot));
        }
    }
    for snapshot in aligner.flush() {
        patterns.extend(engine.push_snapshot(snapshot));
    }
    patterns.extend(engine.finish());
    let elapsed_s = started.elapsed().as_secs_f64();
    let mut patterns: Vec<PatternKey> = patterns.iter().map(key).collect();
    patterns.sort_unstable();
    Oracle {
        patterns,
        late: aligner.late_dropped(),
        elapsed_s,
    }
}

impl Oracle {
    /// Checks one run's output against the oracle: the same pattern
    /// multiset and the same late count.
    pub fn check(&self, what: &str, mut got: Vec<PatternKey>, late: u64) -> Result<(), String> {
        got.sort_unstable();
        if got != self.patterns {
            let (missing, extra) = multiset_diff(&self.patterns, &got);
            return Err(format!(
                "{what}: sealed pattern multiset differs from the serial oracle \
                 ({} expected, {} delivered, {missing} missing, {extra} unexpected)",
                self.patterns.len(),
                got.len()
            ));
        }
        if late != self.late {
            return Err(format!(
                "{what}: late count {late} differs from the serial oracle's {}",
                self.late
            ));
        }
        Ok(())
    }
}

/// Counts of `want` entries absent from `got` and `got` entries beyond
/// `want`, both sorted, multiplicities respected.
fn multiset_diff(want: &[PatternKey], got: &[PatternKey]) -> (usize, usize) {
    let (mut i, mut j, mut missing, mut extra) = (0, 0, 0, 0);
    while i < want.len() && j < got.len() {
        match want[i].cmp(&got[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                missing += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                extra += 1;
                j += 1;
            }
        }
    }
    (missing + want.len() - i, extra + got.len() - j)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(o: &[u32], t: &[u32]) -> PatternKey {
        (o.to_vec(), t.to_vec())
    }

    #[test]
    fn gate_counts_duplicates_and_late_records() {
        let oracle = Oracle {
            patterns: vec![k(&[1, 2], &[3, 4]), k(&[1, 2], &[3, 4]), k(&[5, 6], &[1])],
            late: 0,
            elapsed_s: 0.0,
        };
        let same = vec![k(&[5, 6], &[1]), k(&[1, 2], &[3, 4]), k(&[1, 2], &[3, 4])];
        assert!(oracle.check("run", same.clone(), 0).is_ok());
        // A lost duplicate is a failure even though the set is unchanged.
        let err = oracle
            .check("run", same[..2].to_vec(), 0)
            .expect_err("one duplicate missing");
        assert!(err.contains("1 missing"), "{err}");
        assert!(oracle.check("run", same, 1).is_err());
        assert_eq!(multiset_diff(&[k(&[1], &[1])], &[k(&[2], &[1])]), (1, 1));
    }
}
