//! What the ledger measures: the workloads, every metric by name with
//! its unit and direction, and the regression bounds. `BENCHMARK.json`
//! at the repo root declares the same names to the driver; a guard test
//! holds the two together.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change is rejected. Per-layer metrics explain;
    /// they carry no bound.
    pub bound: Option<f64>,
}

const fn gate(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better, bound: None }
}

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    /// Whether `BENCHMARK.json` hands the workload to the driver's
    /// regression gate. An ungated workload still runs by name and in
    /// `--workload all`; its numbers inform, they reject nothing.
    pub gated: bool,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "clean_hospital",
        why: "CSV in, certified-clean CSV out on dirty hospital rows: repair does ~95% of the work, so a repair change shows here and nowhere else",
        gated: true,
    },
    WorkloadSpec {
        name: "audit_customer",
        why: "ingest-heavy, repair-free: CSV ingest, a 43-CFD detect and .sdq save/open on customer rows; a repair or discovery change must not move it",
        gated: true,
    },
    WorkloadSpec {
        name: "discover_hospital",
        why: "discover, vet, re-parse, detect on dirty hospital rows: discovery, constraint analysis and the mined suite's detect do the work; ingest is ~1%",
        gated: true,
    },
    WorkloadSpec {
        name: "serve_durable",
        // Not gated: `fdatasync` on this sandbox's shared virtio disk
        // drifts by a third over tens of seconds, and identical runs
        // spread 40% apart (README, "Bounds").
        why: "client to durable ack: 2 closed-loop clients, 85% mutations, WAL on; bound by fdatasync and group commit, blind to request-path CPU",
        gated: false,
    },
    WorkloadSpec {
        name: "serve_live",
        why: "serve tier read-mostly in memory: 1 closed-loop client held with the server on one CPU, 75% count, WAL off; prices the request path, not the cross-core wake-up (stream.unpinned_read_p50_us)",
        gated: true,
    },
];

/// Every workload reports every one of these from its untraced run,
/// each at the best of its samples (`run.rs`, `best`), as `_best`
/// says; `setup_s` is a minimum as well, under the name the driver
/// fixes. An item is one input row (batch) or one request
/// (serve); an answer is the first result of a pass — the violation
/// report of the input, or the mined suite — (batch) or the reply to a
/// request (serve).
pub const END_TO_END: [MetricSpec; 4] = [
    gate("setup_s", "s", Better::Lower, 0.25),
    gate("items_per_s_best", "1/s", Better::Higher, 0.25),
    gate("answer_us_best", "us", Better::Lower, 0.25),
    gate("peak_rss_mb", "MB", Better::Lower, 0.10),
];

use Better::{Higher, Lower};

/// Every workload reports every one of these from its traced run (the
/// driver takes one list for all): the split of its own passes by
/// layer, then the price of each layer's public entry points on the
/// probe every workload shares.
pub const PER_LAYER: [MetricSpec; 82] = [
    layer("ledger.trace_overhead", "ratio", Higher),
    layer("ledger.unattributed_share", "ratio", Lower),
    layer("ledger.share_relation", "ratio", Lower),
    layer("ledger.share_constraints", "ratio", Lower),
    layer("ledger.share_detect", "ratio", Lower),
    layer("ledger.share_repair", "ratio", Lower),
    layer("ledger.share_discovery", "ratio", Lower),
    layer("ledger.share_stream", "ratio", Lower),
    layer("relation.read_file_s", "s", Lower),
    layer("relation.csv_split_s", "s", Lower),
    layer("relation.csv_typed_s", "s", Lower),
    layer("relation.csv_ingest_s", "s", Lower),
    layer("relation.csv_ingest_rows_per_s", "rows/s", Higher),
    layer("relation.pool_values", "count", Lower),
    layer("relation.snapshot_save_s", "s", Lower),
    layer("relation.snapshot_open_s", "s", Lower),
    layer("relation.snapshot_bytes_per_csv_byte", "ratio", Lower),
    layer("relation.csv_write_s", "s", Lower),
    layer("constraints.parse_s", "s", Lower),
    layer("constraints.cover_s", "s", Lower),
    layer("constraints.sat_s", "s", Lower),
    layer("detect.native_s", "s", Lower),
    layer("detect.native_rows_per_s", "rows/s", Higher),
    layer("detect.parallel_s", "s", Lower),
    layer("detect.parallel_speedup", "ratio", Higher),
    layer("detect.sql_s", "s", Lower),
    layer("detect.certify_s", "s", Lower),
    layer("detect.violations", "count", Lower),
    layer("repair.batch_s", "s", Lower),
    layer("repair.rows_per_s", "rows/s", Higher),
    layer("repair.parallel_s", "s", Lower),
    layer("repair.passes", "count", Lower),
    layer("repair.cells_changed", "count", Lower),
    layer("repair.residual_violations", "count", Lower),
    layer("repair.cells_per_error", "ratio", Lower),
    layer("repair.precision", "ratio", Higher),
    layer("repair.recall", "ratio", Higher),
    layer("repair.f1", "ratio", Higher),
    layer("discovery.run_s", "s", Lower),
    layer("discovery.parallel_s", "s", Lower),
    layer("discovery.lattice_s", "s", Lower),
    layer("discovery.constant_s", "s", Lower),
    layer("discovery.vet_s", "s", Lower),
    layer("discovery.rules_mined", "count", Lower),
    layer("discovery.rules_vetted", "count", Higher),
    layer("discovery.keep_ratio", "ratio", Higher),
    layer("discovery.candidates_checked", "count", Lower),
    layer("discovery.candidates_pruned", "count", Higher),
    layer("discovery.planted_recall", "ratio", Higher),
    layer("stream.register_s", "s", Lower),
    layer("stream.protocol_us_per_op", "us", Lower),
    layer("stream.session_insert_us", "us", Lower),
    layer("stream.handle_append_us", "us", Lower),
    layer("stream.handle_update_us", "us", Lower),
    layer("stream.handle_delete_us", "us", Lower),
    layer("stream.handle_count_us", "us", Lower),
    layer("stream.handle_report_us", "us", Lower),
    layer("stream.server_us_per_op", "us", Lower),
    layer("stream.wal_us_per_op", "us", Lower),
    layer("stream.wal_fsyncs_per_op", "ratio", Lower),
    layer("stream.wal_group_size_mean", "ratio", Higher),
    layer("stream.wal_bytes_per_op", "bytes", Lower),
    layer("stream.checkpoint_s", "s", Lower),
    layer("stream.checkpoints", "count", Lower),
    layer("stream.state_bytes_per_row", "bytes", Lower),
    layer("stream.recovery_s", "s", Lower),
    layer("stream.recovery_replayed", "count", Lower),
    layer("stream.recovery_us_per_record", "us", Lower),
    layer("stream.ops_per_s", "1/s", Higher),
    layer("stream.append_p50_us", "us", Lower),
    layer("stream.append_p99_us", "us", Lower),
    layer("stream.read_p50_us", "us", Lower),
    layer("stream.read_p99_us", "us", Lower),
    layer("stream.unpinned_read_p50_us", "us", Lower),
    layer("obs.phase_parse_us", "us", Lower),
    layer("obs.phase_route_us", "us", Lower),
    layer("obs.phase_lock_wait_us", "us", Lower),
    layer("obs.phase_apply_us", "us", Lower),
    layer("obs.phase_wal_append_us", "us", Lower),
    layer("obs.phase_commit_wait_us", "us", Lower),
    layer("obs.phase_ack_us", "us", Lower),
    layer("obs.off_speedup", "ratio", Lower),
];

/// The seed `input_fnv64` is pinned for; other seeds skip the pin so a
/// claim can be re-run on inputs nobody tuned against.
pub const DEFAULT_SEED: u64 = 11;

/// `input_fnv64` per workload at [`DEFAULT_SEED`], full scale: a change
/// in `crates/dirty` or `vendor/rand` that alters what is measured
/// fails the run instead of silently moving the numbers. (The driver's
/// `BENCHMARK.json` has no field for these, so they are pinned here.)
pub const PINNED_FNV64: [(&str, u64); 5] = [
    ("clean_hospital", 0x3c45_e14b_7137_f8e3),
    ("audit_customer", 0x12f9_4f63_4c08_52fd),
    ("discover_hospital", 0x0e0a_ea1f_8716_8ed0),
    ("serve_durable", 0xa551_0220_0565_b057),
    ("serve_live", 0xb064_0ccf_62fe_2023),
];

/// A score of a workload's own output that a change may not lower:
/// `clean_hospital`'s `repair_f1` is `DirtyDataset::score_repair(..).f1()`
/// of the written CSV against the clean table, `discover_hospital`'s
/// `planted_recall` the share of the standard suite's variable rules the
/// vetted suite contains or generalises. (A `BENCHMARK.json` bound is a
/// share of a median and cannot say "exact", so these are output
/// checks: a run that scores lower counts a failed operation.)
pub struct QualitySpec {
    pub workload: &'static str,
    pub name: &'static str,
    /// What a full-scale run must score at least: the score of every
    /// seed from 1 to 40 when the benchmark was defined.
    pub floor: f64,
}

pub const QUALITY: [QualitySpec; 2] = [
    QualitySpec { workload: "clean_hospital", name: "repair_f1", floor: 1.0 },
    QualitySpec { workload: "discover_hospital", name: "planted_recall", floor: 1.0 },
];

pub fn quality(workload: &str) -> Option<&'static QualitySpec> {
    QUALITY.iter().find(|q| q.workload == workload)
}

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}
