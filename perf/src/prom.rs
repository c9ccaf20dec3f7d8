//! Reads the pipeline's `MetricRegistry` through its Prometheus exposition
//! (`MetricRegistry::render_prometheus`, the same text the `METRICS` verb
//! serves): the one registry surface that lists every family with its
//! `stage` and `subtask` labels.

use std::collections::BTreeMap;

/// One sample line: `icpe_<family>{stage="..",subtask=".."} value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub family: String,
    pub stage: String,
    pub subtask: u32,
    pub value: f64,
}

/// Parses the exposition, keeping samples that carry a `stage` label and no
/// `le` bucket label.
pub fn parse(text: &str) -> Vec<Sample> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|line| {
            let (head, value) = line.rsplit_once(' ')?;
            let (name, labels) = head.split_once('{')?;
            let labels = labels.strip_suffix('}')?;
            let mut stage = None;
            let mut subtask = None;
            for label in labels.split(',') {
                let (k, v) = label.split_once('=')?;
                let v = v.trim_matches('"');
                match k {
                    "stage" => stage = Some(v.to_string()),
                    "subtask" => subtask = v.parse().ok(),
                    "le" => return None,
                    _ => {}
                }
            }
            Some(Sample {
                family: name.strip_prefix("icpe_")?.to_string(),
                stage: stage?,
                subtask: subtask?,
                value: value.parse().ok()?,
            })
        })
        .collect()
}

/// Per-stage sum over subtasks of one family.
pub fn per_stage_sum(samples: &[Sample], family: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for s in samples.iter().filter(|s| s.family == family) {
        *out.entry(s.stage.clone()).or_insert(0.0) += s.value;
    }
    out
}

/// Per-stage maximum over subtasks of one family.
pub fn per_stage_max(samples: &[Sample], family: &str) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for s in samples.iter().filter(|s| s.family == family) {
        let e = out.entry(s.stage.clone()).or_insert(f64::MIN);
        *e = e.max(s.value);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_labelled_samples_and_skips_buckets() {
        let text = "# TYPE icpe_exchange_queue_depth gauge\n\
            icpe_exchange_queue_depth{stage=\"grid-query\",subtask=\"1\"} 17\n\
            icpe_exchange_queue_depth{stage=\"grid-query\",subtask=\"0\"} 3\n\
            icpe_stage_batch_seconds_bucket{stage=\"enumerate\",subtask=\"0\",le=\"0.1\"} 4\n\
            icpe_stage_batch_seconds_sum{stage=\"enumerate\",subtask=\"0\"} 0.250000000\n\
            icpe_serve_records_in 99\n";
        let samples = parse(text);
        assert_eq!(samples.len(), 3);
        assert_eq!(
            per_stage_max(&samples, "exchange_queue_depth")["grid-query"],
            17.0
        );
        assert_eq!(
            per_stage_sum(&samples, "exchange_queue_depth")["grid-query"],
            20.0
        );
        assert_eq!(
            per_stage_sum(&samples, "stage_batch_seconds_sum")["enumerate"],
            0.25
        );
    }
}
