//! The names the benchmark speaks: workloads, end-to-end metrics and
//! per-layer metrics, exactly as `BENCHMARK.json` lists them. A run may
//! emit these names and no others; [`check_emitted`] enforces it on every
//! run and the tests below hold this table against `BENCHMARK.json`.

/// `(name, unit, bound)` of every end-to-end metric, printed by an untraced
/// run. The bound is the share of the parent's median by which the metric
/// may worsen before a change counts as a regression, and the spread runs
/// of one commit must stay within.
///
/// Four, where the issue that asked for this benchmark listed eleven. Its
/// seven timings head [`PER_LAYER`]: each was lengthened and still missed
/// 0.10 (REPEATABILITY.md has the evidence, metric by metric), so by the
/// issue's own rule each is a per-layer metric. `answered_share` is the
/// issue's `failed_share` turned round: the benchmark's contract takes no
/// metric that is 0 on every good run.
pub const END_TO_END: [(&str, &str, f64); 4] = [
    ("setup_s", "s", 0.25),
    ("disk_bytes_per_report", "bytes/report", 0.01),
    ("resident_bytes_per_report", "bytes/report", 0.05),
    ("answered_share", "share", 0.001),
];

/// `(name, unit)` of every per-layer metric, printed by a traced run: the
/// seven timing figures (an untraced run measures them too and prints them
/// beside its result), then the layers.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("query_qps", "req/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("ingest_reports_per_s", "reports/s"),
    ("durable_ack_p50_us", "us"),
    ("recover_s", "s"),
    ("server_cpu_us_per_op", "us"),
    ("server.client.queue_ns", "ns"),
    ("server.client.flush_us", "us"),
    ("server.client.recv_us", "us"),
    ("journal.frame.split_ns", "ns"),
    ("journal.frame.crc_ns_per_kib", "ns/KiB"),
    ("server.proto.decode_req_ns", "ns"),
    ("server.proto.encode_resp_ns", "ns"),
    ("server.bytes_in_per_op", "bytes"),
    ("server.bytes_out_per_op", "bytes"),
    ("server.ctx_switches_per_op", "count"),
    ("server.unattributed_us", "us"),
    ("serve.score_ns", "ns"),
    ("serve.topk_hit_ns", "ns"),
    ("serve.topk_after_write_us", "us"),
    ("serve.ingest_batch_us", "us"),
    ("serve.flush_us", "us"),
    ("serve.apply_ns_per_report", "ns"),
    ("core.fold_ns_per_report", "ns"),
    ("qos.rank_us_per_category", "us"),
    ("journal.append_us_per_batch_8", "us"),
    ("journal.append_us_per_batch_128", "us"),
    ("journal.fsyncs_per_kreport", "count"),
    ("journal.bytes_per_report", "bytes/report"),
    ("journal.recover_records_per_s", "records/s"),
    ("loadgen.sched_lag_p99_us", "us"),
    ("loadgen.client_cpu_us_per_op", "us"),
    ("loadgen.query_p999_us", "us"),
    ("loadgen.late_share", "share"),
    ("loadgen.trace_overhead_share", "share"),
];

/// Whether `name` is a metric of either kind.
pub fn is_metric(name: &str) -> bool {
    names_and_units(false)
        .chain(names_and_units(true))
        .any(|(known, _)| known == name)
}

/// The bound of end-to-end metric `name`.
pub fn bound_of(name: &str) -> Option<f64> {
    END_TO_END
        .iter()
        .find(|(known, _, _)| *known == name)
        .map(|(_, _, bound)| *bound)
}

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How the figure was taken: sample count, quantile used, phase.
    pub detail: String,
}

/// Collects a run's metrics, looking the unit up in the schema so a name
/// outside it cannot be reported.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn put(&mut self, name: &'static str, value: f64, detail: impl Into<String>) {
        let unit = names_and_units(false)
            .chain(names_and_units(true))
            .find(|(known, _)| *known == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the schema"))
            .1;
        self.metrics.push(Metric {
            name,
            value,
            unit,
            detail: detail.into(),
        });
    }
}

/// `(name, unit)` of the metrics a run of this kind emits.
fn names_and_units(traced: bool) -> impl Iterator<Item = (&'static str, &'static str)> {
    let end_to_end = END_TO_END.iter().map(|(name, unit, _)| (*name, *unit));
    let per_layer = PER_LAYER.iter().copied();
    end_to_end
        .filter(move |_| !traced)
        .chain(per_layer.filter(move |_| traced))
}

/// `Err` naming the first difference when `metrics` is not exactly the
/// expected set (no more, no fewer, no duplicates, finite values).
pub fn check_emitted(metrics: &[Metric], traced: bool) -> Result<(), String> {
    let expected: Vec<(&str, &str)> = names_and_units(traced).collect();
    for (name, _) in &expected {
        match metrics.iter().filter(|m| m.name == *name).count() {
            1 => {}
            0 => return Err(format!("metric {name} was not emitted")),
            n => return Err(format!("metric {name} was emitted {n} times")),
        }
    }
    for metric in metrics {
        if !expected.iter().any(|(name, _)| *name == metric.name) {
            return Err(format!("metric {} is not in the schema", metric.name));
        }
        if !metric.value.is_finite() {
            return Err(format!("metric {} is {}", metric.name, metric.value));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// The `"name"` and `"unit"` strings of the array under `key`, in
    /// order. `BENCHMARK.json` is flat enough for a scanner: an array of
    /// one-level objects.
    fn entries(key: &str) -> Vec<(String, Option<String>)> {
        let start = BENCHMARK_JSON
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("no {key} in BENCHMARK.json"));
        let body = &BENCHMARK_JSON[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split('{')
            .skip(1)
            .map(|object| (field(object, "name").expect("name"), field(object, "unit")))
            .collect()
    }

    fn field(object: &str, key: &str) -> Option<String> {
        let at = object.find(&format!("\"{key}\""))?;
        let rest = &object[at + key.len() + 2..];
        let open = rest.find('"')?;
        let rest = &rest[open + 1..];
        Some(rest[..rest.find('"')?].to_string())
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && name.chars().next().unwrap().is_ascii_alphanumeric()
    }

    #[test]
    fn schema_equals_benchmark_json() {
        let workloads: Vec<String> = entries("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
        for (key, traced) in [("end_to_end", false), ("per_layer", true)] {
            let listed = entries(key);
            let listed: Vec<(&str, &str)> = listed
                .iter()
                .map(|(n, u)| (n.as_str(), u.as_deref().expect("every metric has a unit")))
                .collect();
            let table: Vec<(&str, &str)> = names_and_units(traced).collect();
            assert_eq!(listed, table, "{key} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn bounds_equal_benchmark_json() {
        let start = BENCHMARK_JSON.find("\"end_to_end\"").unwrap();
        let body = &BENCHMARK_JSON[start..];
        let body = &body[..body.find(']').unwrap()];
        let listed: Vec<(String, f64)> = body
            .split('{')
            .skip(1)
            .map(|object| {
                let at = object.find("\"bound\"").expect("every metric has a bound");
                let number: String = object[at + 7..]
                    .chars()
                    .skip_while(|c| !c.is_ascii_digit())
                    .take_while(|c| c.is_ascii_digit() || *c == '.')
                    .collect();
                (field(object, "name").unwrap(), number.parse().unwrap())
            })
            .collect();
        let table: Vec<(String, f64)> = END_TO_END
            .iter()
            .map(|(n, _, b)| (n.to_string(), *b))
            .collect();
        assert_eq!(listed, table);
        let widest = table.iter().map(|(_, b)| *b).fold(0.0, f64::max);
        assert!(widest <= 0.25);
        assert_eq!(
            bound_of("setup_s"),
            Some(widest),
            "no bound is larger than set-up time's"
        );
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in Workload::ALL.map(Workload::name) {
            assert!(well_formed(name) && seen.insert(name));
        }
        for (name, unit) in names_and_units(false).chain(names_and_units(true)) {
            assert!(well_formed(name), "bad name {name}");
            assert!(seen.insert(name), "duplicate {name}");
            assert!(!unit.is_empty() && unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(names_and_units(false).any(|pair| pair == ("setup_s", "s")));
    }

    #[test]
    fn emitted_set_must_match_exactly() {
        let mut report = Report::default();
        for (name, _, _) in END_TO_END {
            report.put(name, 1.0, "");
        }
        assert!(check_emitted(&report.metrics, false).is_ok());
        assert!(check_emitted(&report.metrics[1..], false).is_err());
        assert!(check_emitted(&report.metrics, true).is_err());
        report.put("setup_s", 1.0, "");
        assert!(check_emitted(&report.metrics, false).is_err());
    }
}
