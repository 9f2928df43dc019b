//! Incremental CFD violation detection.
//!
//! The tutorial lists *"incremental repairing methods"* among the open
//! problems (§6d); for detection the TODS paper already gives the
//! technique reproduced here: keep, per CFD, a hash of LHS groups with
//! their RHS multiset, and update it per inserted/deleted tuple. Each
//! delta tuple costs `O(|Tp|)` expected time, versus a full `O(n)`
//! re-detection — the trade-off measured in experiment E11.

use crate::report::{Violation, ViolationReport};
use revival_constraints::cfd::Cfd;
use revival_relation::groupby::hash_syms;
use revival_relation::{GroupBy, Sym, Table, TupleId, Value, ValuePool};
use std::collections::HashMap;

/// Per-LHS-group state for one CFD.
struct GroupState {
    /// Live members and their RHS symbols.
    members: Vec<(TupleId, Sym)>,
    /// Distinct RHS symbol → live count.
    rhs_counts: HashMap<Sym, usize>,
    /// Tableau-row indices of variable rows whose LHS pattern this
    /// group's key matches (computed once per group).
    matched_var_rows: Vec<usize>,
}

impl GroupState {
    fn distinct_rhs(&self) -> usize {
        self.rhs_counts.len()
    }

    fn is_violating(&self) -> bool {
        !self.matched_var_rows.is_empty() && self.distinct_rhs() >= 2
    }
}

/// State for one CFD. Group slots live in the append-only interned
/// kernel: a group whose members all left stays allocated but empty
/// (`distinct_rhs() == 0`) and is skipped on every read — state is
/// `O(distinct keys ever seen)` rather than `O(live keys)`, the price
/// of probing without cloning a key per delta.
struct CfdState {
    groups: GroupBy<Box<[Sym]>, GroupState>,
    /// Tuple → tableau-row index of its constant violation.
    const_violations: HashMap<TupleId, usize>,
    /// Count of (group, matched variable row) pairs currently violating.
    violating_row_pairs: usize,
}

/// Maintains CFD violations under tuple insertions and deletions.
///
/// The detector owns no table — callers stream `(TupleId, row)` events
/// at it (typically mirroring edits applied to a [`Table`]). It interns
/// the projected cells of every event into its own [`ValuePool`], so
/// group probes hash words, not strings, and deletions resolve foreign
/// rows by pool lookup (a value never inserted cannot key a group).
pub struct IncrementalDetector {
    cfds: Vec<Cfd>,
    states: Vec<CfdState>,
    pool: ValuePool,
}

impl IncrementalDetector {
    /// Empty detector for a suite.
    pub fn new(cfds: Vec<Cfd>) -> Self {
        let states = cfds
            .iter()
            .map(|_| CfdState {
                groups: GroupBy::new(),
                const_violations: HashMap::new(),
                violating_row_pairs: 0,
            })
            .collect();
        IncrementalDetector { cfds, states, pool: ValuePool::new() }
    }

    /// Bulk-load an existing table (equivalent to inserting every row).
    pub fn load(&mut self, table: &Table) {
        for (id, row) in table.rows() {
            self.insert(id, &row);
        }
    }

    /// The suite being watched.
    pub fn cfds(&self) -> &[Cfd] {
        &self.cfds
    }

    /// Register an inserted tuple.
    pub fn insert(&mut self, id: TupleId, row: &[Value]) {
        let IncrementalDetector { cfds, states, pool } = self;
        let mut key: Vec<Sym> = Vec::new();
        for (cfd, state) in cfds.iter().zip(states.iter_mut()) {
            // Constant rows.
            if let Some(tp) = cfd.constant_violation(row) {
                state.const_violations.insert(id, tp);
            }
            // Variable rows.
            if cfd.variable_rows().next().is_none() {
                continue;
            }
            key.clear();
            key.extend(cfd.lhs.iter().map(|&a| pool.intern(&row[a])));
            let rhs = pool.intern(&row[cfd.rhs]);
            let hash = hash_syms(key.iter().copied());
            let group = state.groups.entry_mut(
                hash,
                |k| k.as_ref() == key,
                || {
                    // New group: match its key against the variable rows'
                    // LHS patterns once (pattern matching needs values, so
                    // this is the one spot the projection materialises).
                    let key_vals: Vec<Value> = cfd.lhs.iter().map(|&a| row[a].clone()).collect();
                    let matched_var_rows = cfd
                        .tableau
                        .iter()
                        .enumerate()
                        .filter(|(_, r)| !r.is_constant_row() && r.lhs_matches(&key_vals))
                        .map(|(i, _)| i)
                        .collect();
                    (
                        key.clone().into_boxed_slice(),
                        GroupState {
                            members: Vec::new(),
                            rhs_counts: HashMap::new(),
                            matched_var_rows,
                        },
                    )
                },
            );
            let was = group.is_violating();
            group.members.push((id, rhs));
            *group.rhs_counts.entry(rhs).or_insert(0) += 1;
            let now = group.is_violating();
            if !was && now {
                state.violating_row_pairs += group.matched_var_rows.len();
            }
        }
    }

    /// Register a deleted tuple (caller supplies its former row).
    pub fn delete(&mut self, id: TupleId, row: &[Value]) {
        let IncrementalDetector { cfds, states, pool } = self;
        let mut key: Vec<Sym> = Vec::new();
        for (cfd, state) in cfds.iter().zip(states.iter_mut()) {
            state.const_violations.remove(&id);
            if cfd.variable_rows().next().is_none() {
                continue;
            }
            // Resolve the key without interning: a projection value the
            // pool never saw cannot key a live group.
            key.clear();
            let resolved = cfd.lhs.iter().all(|&a| match pool.lookup(&row[a]) {
                Some(s) => {
                    key.push(s);
                    true
                }
                None => false,
            });
            if !resolved {
                continue;
            }
            let hash = hash_syms(key.iter().copied());
            if let Some(i) = state.groups.probe(hash, |k| k.as_ref() == key) {
                let group = state.groups.value_at_mut(i);
                let was = group.is_violating();
                if let Some(pos) = group.members.iter().position(|(t, _)| *t == id) {
                    let (_, rhs) = group.members.swap_remove(pos);
                    if let Some(c) = group.rhs_counts.get_mut(&rhs) {
                        *c -= 1;
                        if *c == 0 {
                            group.rhs_counts.remove(&rhs);
                        }
                    }
                }
                let now = group.is_violating();
                if was && !now {
                    state.violating_row_pairs -= group.matched_var_rows.len();
                }
                // The emptied group keeps its slot (append-only kernel);
                // reads skip it via `distinct_rhs() < 2`.
            }
        }
    }

    /// Register an in-place cell update.
    pub fn update(&mut self, id: TupleId, old_row: &[Value], new_row: &[Value]) {
        self.delete(id, old_row);
        self.insert(id, new_row);
    }

    /// Total number of violations (constant tuple violations plus
    /// violating (group, variable-row) pairs) — O(#CFDs).
    pub fn violation_count(&self) -> usize {
        self.states.iter().map(|s| s.const_violations.len() + s.violating_row_pairs).sum()
    }

    /// Materialise a full report from the maintained state.
    pub fn report(&self) -> ViolationReport {
        let mut report = ViolationReport::default();
        for (idx, state) in self.states.iter().enumerate() {
            let mut const_vs: Vec<(&TupleId, &usize)> = state.const_violations.iter().collect();
            const_vs.sort();
            for (tuple, row) in const_vs {
                report.violations.push(Violation::CfdConstant {
                    cfd: idx,
                    row: *row,
                    tuple: *tuple,
                });
            }
            // Keys re-enter value space per *violating* group only.
            let mut keyed: Vec<(Vec<Value>, &GroupState)> = state
                .groups
                .iter()
                .filter(|(_, g)| g.distinct_rhs() >= 2)
                .map(|(k, g)| (k.iter().map(|&s| self.pool.value(s).clone()).collect(), g))
                .collect();
            keyed.sort_by(|a, b| a.0.cmp(&b.0));
            for (key, group) in keyed {
                for &row in &group.matched_var_rows {
                    let mut tuples: Vec<TupleId> = group.members.iter().map(|(t, _)| *t).collect();
                    tuples.sort();
                    report.violations.push(Violation::CfdVariable {
                        cfd: idx,
                        row,
                        key: key.clone(),
                        tuples,
                    });
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::NativeDetector;
    use revival_constraints::parser::parse_cfds;
    use revival_relation::{Schema, Type};

    fn schema() -> Schema {
        Schema::builder("customer")
            .attr("cc", Type::Str)
            .attr("zip", Type::Str)
            .attr("street", Type::Str)
            .attr("city", Type::Str)
            .build()
    }

    fn suite(s: &Schema) -> Vec<Cfd> {
        parse_cfds(
            "customer([cc='44', zip] -> [street])\n\
             customer([cc='01', zip='07974'] -> [city='mh'])",
            s,
        )
        .unwrap()
    }

    #[test]
    fn insert_creates_and_delete_removes_violation() {
        let s = schema();
        let mut t = Table::new(s.clone());
        let mut d = IncrementalDetector::new(suite(&s));
        let a = t.push(vec!["44".into(), "EH8".into(), "Crichton".into(), "edi".into()]).unwrap();
        d.insert(a, &t.get(a).unwrap());
        assert_eq!(d.violation_count(), 0);
        let b = t.push(vec!["44".into(), "EH8".into(), "Mayfield".into(), "edi".into()]).unwrap();
        d.insert(b, &t.get(b).unwrap());
        assert_eq!(d.violation_count(), 1);
        let row = t.delete(b).unwrap();
        d.delete(b, &row);
        assert_eq!(d.violation_count(), 0);
    }

    #[test]
    fn constant_violations_tracked() {
        let s = schema();
        let mut d = IncrementalDetector::new(suite(&s));
        let row = vec![
            Value::from("01"),
            Value::from("07974"),
            Value::from("MtnAve"),
            Value::from("nyc"),
        ];
        d.insert(TupleId(0), &row);
        assert_eq!(d.violation_count(), 1);
        // Fixing the city via update removes the violation.
        let mut fixed = row.clone();
        fixed[3] = "mh".into();
        d.update(TupleId(0), &row, &fixed);
        assert_eq!(d.violation_count(), 0);
    }

    #[test]
    fn report_matches_native_after_random_edits() {
        use rand::prelude::*;
        let s = schema();
        let cfds = suite(&s);
        let mut rng = StdRng::seed_from_u64(7);
        let mut t = Table::new(s.clone());
        let mut d = IncrementalDetector::new(cfds.clone());
        let ccs = ["44", "01"];
        let zips = ["EH8", "07974", "G1"];
        let streets = ["Crichton", "Mayfield", "MtnAve"];
        let cities = ["edi", "mh", "nyc"];
        let mut live: Vec<TupleId> = Vec::new();
        for _ in 0..300 {
            if live.is_empty() || rng.gen_bool(0.7) {
                let row = vec![
                    Value::from(*ccs.choose(&mut rng).unwrap()),
                    Value::from(*zips.choose(&mut rng).unwrap()),
                    Value::from(*streets.choose(&mut rng).unwrap()),
                    Value::from(*cities.choose(&mut rng).unwrap()),
                ];
                let id = t.push(row.clone()).unwrap();
                d.insert(id, &row);
                live.push(id);
            } else {
                let i = rng.gen_range(0..live.len());
                let id = live.swap_remove(i);
                let row = t.delete(id).unwrap();
                d.delete(id, &row);
            }
        }
        let mut inc = d.report();
        let mut full = NativeDetector::new(&t).detect_all(&cfds);
        inc.normalize();
        full.normalize();
        assert_eq!(inc, full);
        assert_eq!(d.violation_count(), full.len());
    }

    #[test]
    fn load_equivalent_to_inserts() {
        let s = schema();
        let mut t = Table::new(s.clone());
        t.push(vec!["44".into(), "EH8".into(), "A".into(), "edi".into()]).unwrap();
        t.push(vec!["44".into(), "EH8".into(), "B".into(), "edi".into()]).unwrap();
        let mut d = IncrementalDetector::new(suite(&s));
        d.load(&t);
        assert_eq!(d.violation_count(), 1);
    }
}
