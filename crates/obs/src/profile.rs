//! Per-job profiling: the `--explain` accumulator and the windowed
//! registry view behind `metrics --watch`.
//!
//! A [`JobProfile`] is a *per-job* (not process-global) accumulator an
//! engine fills while it runs: one [`ConstraintProfile`] row per
//! constraint (or lattice level), plus named phases and job metadata.
//! It is std-only, mergeable across `std::thread::scope` shards with
//! deterministic constraint-order merges, and renders hot-first as text
//! or JSON with exact totals — an explicit `(unattributed)` row makes
//! the per-row wall times sum to the job wall time, so nothing is
//! silently omitted.
//!
//! The windowed side: [`RegistrySnapshot`] copies a whole
//! [`Registry`](crate::Registry) at an instant; a [`SnapshotRing`]
//! keeps the last N timestamped snapshots and renders the delta across
//! a window as rates/sec and windowed p50/p99 (via
//! [`HistogramSnapshot::delta_since`]). [`ProfileRing`] is the serve
//! tier's per-request ring behind the `profile` verb.

use crate::registry::{json_string, HistogramSnapshot, Registry};
use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;
use std::time::Instant;

/// One constraint's (or lattice level's) accumulated work. Fields that
/// don't apply to a job kind simply stay zero; renderers skip
/// all-zero columns in text and always emit them in JSON.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConstraintProfile {
    /// Stable identity, e.g. `cfd#0 customer([cc, zip] -> [street])`.
    pub name: String,
    /// `cfd`, `cind`, `pass`, `resolve`, `level`, … — lets consumers
    /// filter by row kind.
    pub kind: &'static str,
    /// Live rows the constraint's scan covered (detect).
    pub rows_scanned: u64,
    /// LHS groups probed by the variable pass (detect, native kernel).
    pub groups_probed: u64,
    /// Violations attributed to this constraint.
    pub violations: u64,
    /// Cells changed on this constraint's account (repair).
    pub cells_changed: u64,
    /// Candidates checked at this lattice level (discovery).
    pub candidates_checked: u64,
    /// Candidates pruned at this lattice level (discovery).
    pub candidates_pruned: u64,
    /// `g3` stripped-partition error evaluations (discovery).
    pub g3_evaluations: u64,
    /// Wall microseconds spent building partitions (discovery).
    pub partition_build_us: u64,
    /// Equivalence classes resolved for this RHS attribute (repair).
    pub classes: u64,
    /// Member cells across those classes (repair).
    pub class_cells: u64,
    /// Distinct values across the cost-resolved classes (repair).
    pub distinct_values: u64,
    /// Value-distance evaluations those classes took (repair).
    pub distances_computed: u64,
    /// Total wall microseconds attributed to this row.
    pub wall_us: u64,
    /// Per-shard wall microseconds, in chunk order, when the row's
    /// work was sharded (`wall_us` is the coordinator-side total; the
    /// shard times overlap in real time).
    pub shard_us: Vec<u64>,
}

impl ConstraintProfile {
    fn add(&mut self, other: &ConstraintProfile) {
        self.rows_scanned += other.rows_scanned;
        self.groups_probed += other.groups_probed;
        self.violations += other.violations;
        self.cells_changed += other.cells_changed;
        self.candidates_checked += other.candidates_checked;
        self.candidates_pruned += other.candidates_pruned;
        self.g3_evaluations += other.g3_evaluations;
        self.partition_build_us += other.partition_build_us;
        self.classes += other.classes;
        self.class_cells += other.class_cells;
        self.distinct_values += other.distinct_values;
        self.distances_computed += other.distances_computed;
        self.wall_us += other.wall_us;
        self.shard_us.extend_from_slice(&other.shard_us);
    }
}

/// Per-job profile: what one detect/repair/discover run spent, per
/// constraint and per phase. Built locally by the engine (never via the
/// process-global registry), so concurrent jobs don't bleed into each
/// other.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JobProfile {
    /// Job kind: `detect`, `repair`, or `discover`.
    pub job: &'static str,
    /// Engine detail, e.g. `parallel` or `sequential`.
    pub detail: String,
    /// Shard count the job ran with.
    pub shards: u64,
    /// Total job wall time in microseconds (set by [`JobProfile::finish`]).
    pub wall_us: u64,
    /// Job-level integer facts (suite sizes, totals) in insertion order.
    pub meta: Vec<(&'static str, u64)>,
    /// Named phase wall times (repair: detect/resolve/force; discovery:
    /// lattice/constants/vetting/cinds) in insertion order.
    pub phases: Vec<(&'static str, u64)>,
    /// Per-constraint rows in first-touch order (renderers sort
    /// hot-first; merges preserve this order deterministically). Rows
    /// are added through [`JobProfile::entry`] and [`JobProfile::merge`]
    /// only, which keep the name index in step.
    pub constraints: Vec<ConstraintProfile>,
    /// Row name → position in `constraints`, so a suite of tens of
    /// thousands of constraints profiles in linear time.
    index: HashMap<String, usize>,
}

impl JobProfile {
    pub fn new(job: &'static str, detail: impl Into<String>, shards: u64) -> JobProfile {
        JobProfile { job, detail: detail.into(), shards, ..JobProfile::default() }
    }

    /// The row for `name`, created on first touch (kind set then).
    pub fn entry(&mut self, name: &str, kind: &'static str) -> &mut ConstraintProfile {
        let at = match self.index.get(name) {
            Some(&at) => at,
            None => self.push_row(ConstraintProfile {
                name: name.to_string(),
                kind,
                ..ConstraintProfile::default()
            }),
        };
        &mut self.constraints[at]
    }

    /// Append a row whose name is new; returns its position.
    fn push_row(&mut self, row: ConstraintProfile) -> usize {
        self.index.insert(row.name.clone(), self.constraints.len());
        self.constraints.push(row);
        self.constraints.len() - 1
    }

    /// Whether a row named `name` already exists.
    pub fn has(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    /// Record a job-level fact (summed if the key repeats).
    pub fn meta_add(&mut self, key: &'static str, v: u64) {
        match self.meta.iter_mut().find(|(k, _)| *k == key) {
            Some(entry) => entry.1 += v,
            None => self.meta.push((key, v)),
        }
    }

    /// Look a job-level fact up.
    pub fn meta_get(&self, key: &str) -> Option<u64> {
        self.meta.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    /// Add wall time to a named phase (summed if the phase repeats).
    pub fn phase_add(&mut self, phase: &'static str, us: u64) {
        match self.phases.iter_mut().find(|(p, _)| *p == phase) {
            Some(entry) => entry.1 += us,
            None => self.phases.push((phase, us)),
        }
    }

    /// Fold another profile in: rows merge by constraint name (this
    /// profile's order first, then `other`'s unseen rows in their
    /// order), phases and meta sum by key. Deterministic given
    /// deterministic inputs — the shard-merge primitive.
    pub fn merge(&mut self, other: &JobProfile) {
        for c in &other.constraints {
            match self.index.get(&c.name) {
                Some(&at) => self.constraints[at].add(c),
                None => {
                    self.push_row(c.clone());
                }
            }
        }
        for (k, v) in &other.meta {
            self.meta_add(k, *v);
        }
        for (p, us) in &other.phases {
            self.phase_add(p, *us);
        }
    }

    /// Close the profile with the job's total wall time. The wall is
    /// clamped to at least the attributed sum: each per-row timer
    /// truncates to whole µs independently of the outer timer, so the
    /// sum may exceed the measured wall by a µs — never report
    /// constraint rows that overflow the job they sum to.
    pub fn finish(&mut self, wall_us: u64) {
        self.wall_us = wall_us.max(self.attributed_us());
    }

    /// Wall microseconds attributed to constraint rows.
    pub fn attributed_us(&self) -> u64 {
        self.constraints.iter().map(|c| c.wall_us).sum()
    }

    /// Wall microseconds not attributed to any row — setup, merging,
    /// report mapping. Reported explicitly so the per-row times plus
    /// this always sum to [`JobProfile::wall_us`] exactly.
    pub fn overhead_us(&self) -> u64 {
        self.wall_us.saturating_sub(self.attributed_us())
    }

    /// Constraint indices sorted hot-first (wall descending, original
    /// order as the deterministic tie-break).
    fn hot_order(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.constraints.len()).collect();
        idx.sort_by_key(|&i| (std::cmp::Reverse(self.constraints[i].wall_us), i));
        idx
    }

    /// Human-readable explain output, hot-first, totals exact.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "{} profile: engine={} shards={} wall={}us\n",
            self.job, self.detail, self.shards, self.wall_us
        );
        if !self.meta.is_empty() {
            out.push_str("  ");
            for (i, (k, v)) in self.meta.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                out.push_str(&format!("{k}={v}"));
            }
            out.push('\n');
        }
        if !self.phases.is_empty() {
            out.push_str("  phases:");
            for (p, us) in &self.phases {
                out.push_str(&format!(" {p}={us}us"));
            }
            out.push('\n');
        }
        for i in self.hot_order() {
            let c = &self.constraints[i];
            out.push_str(&format!("  {:>8}us  {}", c.wall_us, c.name));
            let mut detail: Vec<String> = Vec::new();
            for (label, v) in [
                ("rows", c.rows_scanned),
                ("groups", c.groups_probed),
                ("violations", c.violations),
                ("cells_changed", c.cells_changed),
                ("candidates", c.candidates_checked),
                ("pruned", c.candidates_pruned),
                ("g3", c.g3_evaluations),
                ("partition_us", c.partition_build_us),
                ("classes", c.classes),
                ("class_cells", c.class_cells),
                ("distinct", c.distinct_values),
                ("distances", c.distances_computed),
            ] {
                if v > 0 {
                    detail.push(format!("{label}={v}"));
                }
            }
            if !c.shard_us.is_empty() {
                let shards: Vec<String> = c.shard_us.iter().map(|us| us.to_string()).collect();
                detail.push(format!("shard_us=[{}]", shards.join(",")));
            }
            if !detail.is_empty() {
                out.push_str(&format!("  ({})", detail.join(" ")));
            }
            out.push('\n');
        }
        out.push_str(&format!("  {:>8}us  (unattributed)\n", self.overhead_us()));
        out
    }

    /// Machine-readable explain output: one JSON object, integers only,
    /// every field always present so consumers never probe for keys.
    pub fn render_json(&self) -> String {
        let mut out = format!(
            "{{\"job\":{},\"engine\":{},\"shards\":{},\"wall_us\":{},\
             \"attributed_us\":{},\"overhead_us\":{}",
            json_string(self.job),
            json_string(&self.detail),
            self.shards,
            self.wall_us,
            self.attributed_us(),
            self.overhead_us(),
        );
        for (k, v) in &self.meta {
            out.push_str(&format!(",{}:{v}", json_string(k)));
        }
        out.push_str(",\"phases\":[");
        for (i, (p, us)) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"name\":{},\"us\":{us}}}", json_string(p)));
        }
        out.push_str("],\"constraints\":[");
        for (n, i) in self.hot_order().into_iter().enumerate() {
            let c = &self.constraints[i];
            if n > 0 {
                out.push(',');
            }
            let shards: Vec<String> = c.shard_us.iter().map(|us| us.to_string()).collect();
            out.push_str(&format!(
                "{{\"name\":{},\"kind\":{},\"wall_us\":{},\"rows_scanned\":{},\
                 \"groups_probed\":{},\"violations\":{},\"cells_changed\":{},\
                 \"candidates_checked\":{},\"candidates_pruned\":{},\
                 \"g3_evaluations\":{},\"partition_build_us\":{},\"classes\":{},\
                 \"class_cells\":{},\"distinct_values\":{},\"distances_computed\":{},\
                 \"shard_us\":[{}]}}",
                json_string(&c.name),
                json_string(c.kind),
                c.wall_us,
                c.rows_scanned,
                c.groups_probed,
                c.violations,
                c.cells_changed,
                c.candidates_checked,
                c.candidates_pruned,
                c.g3_evaluations,
                c.partition_build_us,
                c.classes,
                c.class_cells,
                c.distinct_values,
                c.distances_computed,
                shards.join(","),
            ));
        }
        out.push_str("]}");
        out
    }
}

/// A point-in-time copy of a whole registry, name-ordered. Cheap enough
/// to take every few seconds; two of them bound a window.
#[derive(Clone, Debug, Default)]
pub struct RegistrySnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// A ring of timestamped [`RegistrySnapshot`]s: push one per poll, then
/// render the delta across a trailing window as rates/sec and windowed
/// quantiles. Drives `semandaq metrics --watch`.
pub struct SnapshotRing {
    cap: usize,
    epoch: Instant,
    entries: VecDeque<(u64, RegistrySnapshot)>,
}

impl SnapshotRing {
    /// A ring holding at most `cap` snapshots (oldest evicted first).
    pub fn new(cap: usize) -> SnapshotRing {
        SnapshotRing { cap: cap.max(2), epoch: Instant::now(), entries: VecDeque::new() }
    }

    /// Snapshot `registry` now and push it.
    pub fn record(&mut self, registry: &Registry) {
        let at_ms = self.epoch.elapsed().as_millis() as u64;
        self.entries.push_back((at_ms, registry.snapshot()));
        while self.entries.len() > self.cap {
            self.entries.pop_front();
        }
    }

    /// Snapshots currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Render the delta between the newest snapshot and the oldest one
    /// inside the trailing `window_secs` window: per-counter rates/sec
    /// and per-histogram windowed count, rate, p50/p99 (exact deltas
    /// via [`HistogramSnapshot::delta_since`]). `None` until two
    /// snapshots exist.
    pub fn render_window(&self, window_secs: u64) -> Option<String> {
        let (new_ms, newest) = self.entries.back()?;
        let window_ms = window_secs.max(1) * 1000;
        let (old_ms, oldest) = self
            .entries
            .iter()
            .rev()
            .skip(1)
            .take_while(|(ms, _)| new_ms.saturating_sub(*ms) <= window_ms)
            .last()
            .or_else(|| self.entries.iter().rev().nth(1))?;
        let span_ms = new_ms.saturating_sub(*old_ms).max(1);
        let secs = span_ms as f64 / 1000.0;
        let mut out = format!("window: {:.1}s ({} snapshot(s) held)\n", secs, self.entries.len());
        for (name, now) in &newest.counters {
            let before =
                oldest.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(0);
            let delta = now.saturating_sub(before);
            if delta > 0 {
                out.push_str(&format!("{name} +{delta} ({:.1}/s)\n", delta as f64 / secs));
            }
        }
        for (name, now) in &newest.gauges {
            out.push_str(&format!("{name} {now}\n"));
        }
        for (name, now) in &newest.histograms {
            let delta = match oldest.histograms.iter().find(|(n, _)| n == name) {
                Some((_, before)) => now.delta_since(before),
                None => now.clone(),
            };
            if delta.count > 0 {
                out.push_str(&format!(
                    "{name} +{} ({:.1}/s) p50={}us p99={}us\n",
                    delta.count,
                    delta.count as f64 / secs,
                    delta.percentile(0.50),
                    delta.percentile(0.99),
                ));
            }
        }
        Some(out)
    }
}

/// One served request's profile, as the serve tier records it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestProfile {
    /// Monotonic sequence number (1-based, per ring).
    pub seq: u64,
    pub verb: String,
    pub ok: bool,
    pub total_us: u64,
    /// `(phase, us)` in pipeline order; sums to `total_us`.
    pub phases: Vec<(String, u64)>,
}

/// A bounded, thread-safe ring of the last N [`RequestProfile`]s — the
/// storage behind the `profile` serve verb. Pushing is one mutex
/// acquisition per request; the lock recovers from poisoning like every
/// other serve-tier lock.
pub struct ProfileRing {
    cap: usize,
    next_seq: Mutex<u64>,
    entries: Mutex<VecDeque<RequestProfile>>,
}

impl ProfileRing {
    pub fn new(cap: usize) -> ProfileRing {
        ProfileRing {
            cap: cap.max(1),
            next_seq: Mutex::new(0),
            entries: Mutex::new(VecDeque::new()),
        }
    }

    /// Append one request profile (assigns its sequence number).
    pub fn push(&self, verb: &str, ok: bool, total_us: u64, phases: &[(&'static str, u64)]) {
        let seq = {
            let mut next = self.next_seq.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            *next += 1;
            *next
        };
        let profile = RequestProfile {
            seq,
            verb: verb.to_string(),
            ok,
            total_us,
            phases: phases.iter().map(|(p, us)| (p.to_string(), *us)).collect(),
        };
        let mut entries = self.entries.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        entries.push_back(profile);
        while entries.len() > self.cap {
            entries.pop_front();
        }
    }

    /// The newest `n` profiles, newest first.
    pub fn last(&self, n: usize) -> Vec<RequestProfile> {
        let entries = self.entries.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        entries.iter().rev().take(n).cloned().collect()
    }

    /// The newest `n` profiles as a JSON array (newest first).
    pub fn to_json(&self, n: usize) -> String {
        let mut out = String::from("[");
        for (i, p) in self.last(n).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"seq\":{},\"verb\":{},\"ok\":{},\"total_us\":{},\"phases\":[",
                p.seq,
                json_string(&p.verb),
                if p.ok { "true" } else { "false" },
                p.total_us
            ));
            for (j, (phase, us)) in p.phases.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{{\"name\":{},\"us\":{us}}}", json_string(phase)));
            }
            out.push_str("]}");
        }
        out.push(']');
        out
    }

    /// The newest `n` profiles as text, one request per line.
    pub fn render_text(&self, n: usize) -> String {
        let mut out = String::new();
        for p in self.last(n) {
            out.push_str(&format!(
                "#{} {} {} {}us:",
                p.seq,
                p.verb,
                if p.ok { "ok" } else { "err" },
                p.total_us
            ));
            for (phase, us) in &p.phases {
                out.push_str(&format!(" {phase}={us}us"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobProfile {
        let mut p = JobProfile::new("detect", "native", 1);
        let c = p.entry("cfd#0 r([a] -> [b])", "cfd");
        c.rows_scanned = 100;
        c.groups_probed = 10;
        c.violations = 2;
        c.wall_us = 40;
        let c = p.entry("cfd#1 r([b] -> [c])", "cfd");
        c.rows_scanned = 100;
        c.wall_us = 60;
        p.meta_add("suite_cfds", 2);
        p.phase_add("scan", 95);
        p.finish(120);
        p
    }

    #[test]
    fn totals_are_exact_with_explicit_overhead() {
        let p = sample();
        assert_eq!(p.attributed_us(), 100);
        assert_eq!(p.overhead_us(), 20);
        assert_eq!(p.attributed_us() + p.overhead_us(), p.wall_us);
        let text = p.render_text();
        assert!(text.contains("(unattributed)"), "{text}");
        // Hot-first: the 60us row renders before the 40us row.
        let hot = text.find("cfd#1").unwrap();
        let cold = text.find("cfd#0").unwrap();
        assert!(hot < cold, "{text}");
    }

    #[test]
    fn json_has_every_field_and_is_hot_first() {
        let p = sample();
        let json = p.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"job\":\"detect\"",
            "\"engine\":\"native\"",
            "\"wall_us\":120",
            "\"attributed_us\":100",
            "\"overhead_us\":20",
            "\"suite_cfds\":2",
            "\"rows_scanned\":100",
            "\"groups_probed\":10",
            "\"cells_changed\":0",
            "\"classes\":0",
            "\"distances_computed\":0",
            "\"shard_us\":[]",
            "\"phases\":[{\"name\":\"scan\",\"us\":95}]",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.find("cfd#1").unwrap() < json.find("cfd#0").unwrap());
    }

    #[test]
    fn entries_are_found_by_name_and_keep_insertion_order() {
        let mut p = JobProfile::new("detect", "native", 1);
        p.entry("cfd#0", "cfd").wall_us = 7;
        p.entry("pass#0", "pass");
        // A second touch returns the first row, whatever kind it names.
        assert_eq!(p.entry("cfd#0", "pass").wall_us, 7);
        assert_eq!(p.entry("cfd#0", "pass").kind, "cfd");
        assert_eq!(p.constraints.len(), 2);
        assert!(p.has("pass#0") && !p.has("pass#1"));
        // A mined suite's worth of rows: every name is found again (a
        // linear lookup makes this loop quadratic) and order holds.
        let mut big = JobProfile::new("detect", "native", 1);
        for i in 0..50_000u64 {
            big.entry(&format!("cfd#{i}"), "cfd").violations = i;
        }
        for i in (0..50_000u64).rev() {
            assert_eq!(big.entry(&format!("cfd#{i}"), "cfd").violations, i);
        }
        assert_eq!(big.constraints.len(), 50_000);
        assert!(big.constraints.iter().enumerate().all(|(i, c)| c.name == format!("cfd#{i}")));
        // Merging finds rows through the same index.
        let mut twice = big.clone();
        twice.merge(&big);
        assert_eq!(twice.constraints.len(), 50_000);
        assert_eq!(twice.constraints[3].violations, 6);
    }

    #[test]
    fn merge_is_deterministic_and_sums_fields() {
        let mut a = JobProfile::new("detect", "parallel", 4);
        a.entry("cfd#0", "cfd").rows_scanned = 50;
        a.entry("cfd#0", "cfd").shard_us.push(7);
        let mut b = JobProfile::new("detect", "parallel", 4);
        b.entry("cfd#0", "cfd").rows_scanned = 50;
        b.entry("cfd#0", "cfd").shard_us.push(9);
        b.entry("cind#0", "cind").rows_scanned = 30;
        b.phase_add("cinds", 5);
        a.merge(&b);
        assert_eq!(a.constraints.len(), 2);
        assert_eq!(a.constraints[0].name, "cfd#0");
        assert_eq!(a.constraints[0].rows_scanned, 100);
        assert_eq!(a.constraints[0].shard_us, vec![7, 9]);
        assert_eq!(a.constraints[1].name, "cind#0");
        assert_eq!(a.phases, vec![("cinds", 5)]);
    }

    #[test]
    fn snapshot_ring_windows_counters_and_histograms() {
        let registry = Registry::new();
        let mut ring = SnapshotRing::new(8);
        registry.counter("ops_total").add(10);
        registry.histogram("op_us").record(100);
        ring.record(&registry);
        assert!(ring.render_window(5).is_none(), "one snapshot is not a window");
        registry.counter("ops_total").add(30);
        for _ in 0..10 {
            registry.histogram("op_us").record(4000);
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
        ring.record(&registry);
        let text = ring.render_window(5).expect("two snapshots bound a window");
        assert!(text.contains("ops_total +30"), "{text}");
        assert!(text.contains("op_us +10"), "{text}");
        // Windowed p50 reflects only the window's 4000us records, not
        // the pre-window 100us one.
        let p50_line = text.lines().find(|l| l.starts_with("op_us")).unwrap();
        assert!(p50_line.contains("p50="), "{p50_line}");
        let p50: u64 = p50_line
            .split("p50=")
            .nth(1)
            .and_then(|s| s.split("us").next())
            .and_then(|s| s.parse().ok())
            .unwrap();
        assert!((3000..=5000).contains(&p50), "windowed p50={p50}");
    }

    #[test]
    fn snapshot_ring_evicts_past_cap() {
        let registry = Registry::new();
        let mut ring = SnapshotRing::new(2);
        for _ in 0..5 {
            ring.record(&registry);
        }
        assert_eq!(ring.len(), 2);
    }

    #[test]
    fn profile_ring_keeps_last_n_newest_first() {
        let ring = ProfileRing::new(3);
        for i in 0..5u64 {
            ring.push("append", true, 10 + i, &[("parse", 1), ("apply", 9 + i)]);
        }
        let last = ring.last(10);
        assert_eq!(last.len(), 3);
        assert_eq!(last[0].seq, 5);
        assert_eq!(last[2].seq, 3);
        let json = ring.to_json(2);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"seq\":5"), "{json}");
        assert!(json.contains("\"verb\":\"append\""), "{json}");
        assert!(!json.contains("\"seq\":3"), "last(2) must cut at two entries: {json}");
        let text = ring.render_text(1);
        assert!(text.contains("#5 append ok"), "{text}");
        assert!(text.contains("apply="), "{text}");
    }
}
