//! `IncRepair` — repairing a delta against a trusted base.
//!
//! The setting of Cong et al. §5 (and the tutorial's open problem §6d):
//! a base instance is trusted; a batch of new tuples arrives; repair
//! *only the new tuples* so that each agrees with the base and with the
//! arrivals before it — versus re-running [`crate::BatchRepair`] over
//! base + delta, the trade-off measured in experiment E6.
//!
//! **`O(|Δ|)`.** The repair owns no index: LHS classes and constant
//! violations are already maintained by the [`IncrementalDetector`] over
//! the table, so a pending tuple costs two reads of that state per
//! embedded FD and pass and one [`IncrementalDetector::write`] per edit.
//!
//! **The eldest-member rule.** Ids are append-only slots; the pending
//! tuples are the live slots from one baseline slot up, visited eldest
//! first. A group's canonical RHS value is its eldest member's, its LHS
//! class's first slot: a base tuple if the group has one, else the first
//! arrival, repaired by then and never edited again. So a pending tuple
//! conforms to its elders; one with no elder anchors its group as is.
//!
//! **The fixpoint order.** Per tuple, passes over the units in suite
//! order until one changes nothing (`units + 2` at most); per unit the
//! constant demand, then the group demand, each met by one priced write
//! every later read sees — a constant fix that moves the tuple into
//! another group (`[..] -> [city='mh']`, then `[city] -> [street]`) is
//! followed there in the same visit.
//!
//! **A dirty base** stays as it is: only slots from the baseline up are
//! written, conflicts among base tuples are left standing, and a pending
//! tuple conforms to the eldest of a conflicting group.

use crate::cost::{CostModel, DistanceScratch};
use revival_constraints::Cfd;
use revival_detect::IncrementalDetector;
use revival_relation::{Table, TupleId, Value};

/// Statistics from an incremental repair.
#[derive(Clone, Debug, Default)]
pub struct IncStats {
    /// Delta tuples edited.
    pub tuples_edited: usize,
    /// Individual cell edits.
    pub cells_changed: usize,
    /// Total weighted cost of the edits.
    pub cost: f64,
}

/// Incremental repair over a detector's state (see the module doc).
pub struct IncRepair;

impl IncRepair {
    /// Repair, in place, the live tuples of `table` at slot
    /// `first_pending` and above against everything below it, eldest
    /// first. `detector` must be the maintained state of `table`; every
    /// edit goes through [`IncrementalDetector::write`], so it still is
    /// on return.
    pub fn repair_pending(
        table: &mut Table,
        detector: &mut IncrementalDetector,
        first_pending: usize,
        cost: &CostModel,
    ) -> IncStats {
        let mut stats = IncStats::default();
        let mut scratch = DistanceScratch::default();
        for slot in first_pending..table.slots() {
            if !table.is_live(slot) {
                continue;
            }
            let id = TupleId(slot as u64);
            let before = stats.cells_changed;
            // Iterate to a local fixpoint: fixing one CFD can affect another.
            for _ in 0..detector.units() + 2 {
                let pass = stats.cells_changed;
                for unit in 0..detector.units() {
                    for of_group in [false, true] {
                        let demand = if of_group {
                            detector.group_demand(table, unit, id)
                        } else {
                            detector.constant_demand(unit, id)
                        };
                        let Some((attr, to)) = demand.map(|(a, v)| (a, v.clone())) else {
                            continue;
                        };
                        let from = table.pool().value(table.col(attr)[slot]);
                        let price = cost.change_cost(id, attr, from, &to, &mut scratch);
                        // A constant the attribute's type refuses is not
                        // written: the tuple keeps that violation, counted.
                        if detector.write(table, id, attr, to).is_ok() {
                            stats.cost += price;
                            stats.cells_changed += 1;
                        }
                    }
                }
                if stats.cells_changed == pass {
                    break;
                }
            }
            stats.tuples_edited += usize::from(stats.cells_changed > before);
        }
        stats
    }

    /// Repair a whole delta batch against the base, appending the
    /// repaired tuples to `base` and returning stats.
    pub fn repair_delta(
        cfds: &[Cfd],
        base: &mut Table,
        delta: Vec<Vec<Value>>,
        cost: CostModel,
    ) -> IncStats {
        let mut detector = IncrementalDetector::new(cfds.to_vec());
        detector.load(base);
        let first_pending = base.slots();
        for row in delta {
            let id = base.push_unchecked(row);
            detector.add(base, id, None);
        }
        Self::repair_pending(base, &mut detector, first_pending, &cost)
    }
}

/// The value-keyed repairer this module replaced, kept as the oracle
/// the maintained-state form is property-tested against: it indexes the
/// whole base into one `HashMap<Vec<Value>, Value>` per merged CFD
/// (skipping `exclude`, the pending ids) and repairs a materialised row.
#[cfg(test)]
mod oracle {
    use super::IncStats;
    use crate::cost::{CostModel, DistanceScratch};
    use revival_constraints::cfd::merge_by_embedded_fd;
    use revival_constraints::pattern::PatternValue;
    use revival_constraints::Cfd;
    use revival_relation::{Table, TupleId, Value};
    use std::collections::{HashMap, HashSet};

    pub struct IncRepair {
        cfds: Vec<Cfd>,
        cost: CostModel,
        groups: Vec<HashMap<Vec<Value>, Value>>,
        scratch: DistanceScratch,
    }

    impl IncRepair {
        pub fn new_excluding(
            cfds: &[Cfd],
            base: &Table,
            cost: CostModel,
            exclude: &HashSet<TupleId>,
        ) -> Self {
            let cfds = merge_by_embedded_fd(cfds);
            let mut groups: Vec<HashMap<Vec<Value>, Value>> = Vec::with_capacity(cfds.len());
            for cfd in &cfds {
                let mut map = HashMap::new();
                if cfd.variable_rows().next().is_some() {
                    for (id, row) in base.rows() {
                        if exclude.contains(&id) {
                            continue;
                        }
                        let key: Vec<Value> = cfd.lhs.iter().map(|&a| row[a].clone()).collect();
                        map.entry(key).or_insert_with(|| row[cfd.rhs].clone());
                    }
                }
                groups.push(map);
            }
            IncRepair { cfds, cost, groups, scratch: DistanceScratch::default() }
        }

        pub fn repair_tuple(&mut self, id: TupleId, row: &mut [Value], stats: &mut IncStats) {
            let mut edited = false;
            for _ in 0..self.cfds.len() + 2 {
                let mut changed = false;
                for (cfd, groups) in self.cfds.iter().zip(&self.groups) {
                    if let Some(tp_idx) = cfd.constant_violation(row) {
                        let tp = &cfd.tableau[tp_idx];
                        if let PatternValue::Const(c) = &tp.rhs {
                            let old = row[cfd.rhs].clone();
                            stats.cost +=
                                self.cost.change_cost(id, cfd.rhs, &old, c, &mut self.scratch);
                            row[cfd.rhs] = c.clone();
                            stats.cells_changed += 1;
                            changed = true;
                            edited = true;
                        }
                    }
                    if cfd.variable_rows().next().is_none() {
                        continue;
                    }
                    let key: Vec<Value> = cfd.lhs.iter().map(|&a| row[a].clone()).collect();
                    let applies = cfd.variable_rows().any(|tp| tp.lhs_matches(&key));
                    if !applies {
                        continue;
                    }
                    if let Some(canon) = groups.get(&key) {
                        if row[cfd.rhs] != *canon {
                            let old = row[cfd.rhs].clone();
                            stats.cost +=
                                self.cost.change_cost(id, cfd.rhs, &old, canon, &mut self.scratch);
                            row[cfd.rhs] = canon.clone();
                            stats.cells_changed += 1;
                            changed = true;
                            edited = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
            for (cfd, groups) in self.cfds.iter().zip(&mut self.groups) {
                if cfd.variable_rows().next().is_none() {
                    continue;
                }
                let key: Vec<Value> = cfd.lhs.iter().map(|&a| row[a].clone()).collect();
                groups.entry(key).or_insert_with(|| row[cfd.rhs].clone());
            }
            if edited {
                stats.tuples_edited += 1;
            }
        }

        /// What the session's `repair` did with it: exclude the live
        /// slots from `first_pending` up, repair each on a copy of its
        /// row, write back the cells that came out different.
        pub fn repair_pending(
            cfds: &[Cfd],
            table: &mut Table,
            first_pending: usize,
            cost: &CostModel,
        ) -> IncStats {
            let pending: Vec<TupleId> =
                table.tuple_ids().filter(|id| id.0 as usize >= first_pending).collect();
            let exclude = pending.iter().copied().collect();
            let mut inc = Self::new_excluding(cfds, table, cost.clone(), &exclude);
            let mut stats = IncStats::default();
            for id in pending {
                let old = table.get(id).unwrap();
                let mut row = old.clone();
                inc.repair_tuple(id, &mut row, &mut stats);
                for (attr, v) in row.into_iter().enumerate().filter(|(a, v)| *v != old[*a]) {
                    table.set_cell(id, attr, v).unwrap();
                }
            }
            stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revival_constraints::parser::parse_cfds;
    use revival_detect::native::satisfies;
    use revival_detect::{DetectJob, Detector, NativeEngine};
    use revival_relation::{Schema, Type};

    fn schema() -> Schema {
        Schema::builder("customer")
            .attr("cc", Type::Str)
            .attr("ac", Type::Str)
            .attr("street", Type::Str)
            .attr("city", Type::Str)
            .attr("zip", Type::Str)
            .build()
    }

    fn suite(s: &Schema) -> Vec<Cfd> {
        parse_cfds(
            "customer([cc='44', zip] -> [street])\n\
             customer([cc='01', ac='908'] -> [city='mh'])",
            s,
        )
        .unwrap()
    }

    fn base() -> Table {
        let mut t = Table::new(schema());
        t.push(vec!["44".into(), "131".into(), "Crichton".into(), "edi".into(), "EH8".into()])
            .unwrap();
        t.push(vec!["01".into(), "908".into(), "Mtn".into(), "mh".into(), "07974".into()]).unwrap();
        t
    }

    #[test]
    fn delta_conforms_to_base_group() {
        let s = schema();
        let cfds = suite(&s);
        let mut table = base();
        let delta = vec![vec![
            Value::from("44"),
            Value::from("131"),
            Value::from("Mayfield"), // conflicts with base street for EH8
            Value::from("edi"),
            Value::from("EH8"),
        ]];
        let stats = IncRepair::repair_delta(&cfds, &mut table, delta, CostModel::uniform(5));
        assert!(satisfies(&table, &cfds));
        assert_eq!(stats.tuples_edited, 1);
        // The delta tuple took the base's street.
        let last = table.rows().last().unwrap().1;
        assert_eq!(last[2], Value::from("Crichton"));
    }

    #[test]
    fn constant_rule_enforced_on_delta() {
        let s = schema();
        let cfds = suite(&s);
        let mut table = base();
        let delta = vec![vec![
            Value::from("01"),
            Value::from("908"),
            Value::from("Elm"),
            Value::from("nyc"), // must become mh
            Value::from("07975"),
        ]];
        IncRepair::repair_delta(&cfds, &mut table, delta, CostModel::uniform(5));
        assert!(satisfies(&table, &cfds));
        let last = table.rows().last().unwrap().1;
        assert_eq!(last[3], Value::from("mh"));
    }

    #[test]
    fn delta_vs_delta_conflicts_resolved() {
        let s = schema();
        let cfds = suite(&s);
        let mut table = base();
        // Two delta tuples in a *new* group conflicting with each other:
        // the first becomes canonical, the second conforms.
        let delta = vec![
            vec![
                Value::from("44"),
                Value::from("131"),
                Value::from("High St"),
                Value::from("edi"),
                Value::from("G1"),
            ],
            vec![
                Value::from("44"),
                Value::from("131"),
                Value::from("Low St"),
                Value::from("edi"),
                Value::from("G1"),
            ],
        ];
        IncRepair::repair_delta(&cfds, &mut table, delta, CostModel::uniform(5));
        assert!(satisfies(&table, &cfds));
        let rows: Vec<_> = table.rows().map(|(_, r)| r).collect();
        assert_eq!(rows[2][2], rows[3][2]);
        assert_eq!(rows[2][2], Value::from("High St"));
    }

    /// A dirty tuple already sits *inside* the table (the streaming
    /// pending-delta case): at or above the baseline slot, it conforms to
    /// its elders rather than anchoring its group — and one with no elder
    /// anchors its group as it stands.
    #[test]
    fn pending_tuples_conform_to_their_elders_or_anchor_their_group() {
        let s = schema();
        let cfds = suite(&s);
        let mut table = base();
        let first_pending = table.slots();
        let dirty = table
            .push(vec!["44".into(), "131".into(), "Mayfield".into(), "edi".into(), "EH8".into()])
            .unwrap();
        let lone = table
            .push(vec!["44".into(), "131".into(), "Dirty".into(), "edi".into(), "G77".into()])
            .unwrap();
        let mut detector = IncrementalDetector::new(cfds.clone());
        detector.load(&table);
        let cost = CostModel::uniform(5);
        let stats = IncRepair::repair_pending(&mut table, &mut detector, first_pending, &cost);
        assert_eq!(table.get(dirty).unwrap()[2], Value::from("Crichton"));
        assert_eq!(table.get(lone).unwrap()[2], Value::from("Dirty"));
        assert_eq!((stats.tuples_edited, stats.cells_changed), (1, 1));
        // The state the edits went through is still the table's.
        assert_eq!(detector.violation_count(), 0);
        assert_eq!(
            detector.report(&table),
            NativeEngine.run(&DetectJob::on_table(&table, &cfds)).unwrap()
        );
        // Had the baseline sat above it, the dirty tuple would have been
        // base: nothing pending, nothing written, the conflict left.
        let mut table = base();
        table
            .push(vec!["44".into(), "131".into(), "Mayfield".into(), "edi".into(), "EH8".into()])
            .unwrap();
        let mut detector = IncrementalDetector::new(cfds);
        detector.load(&table);
        let first_pending = table.slots();
        let stats = IncRepair::repair_pending(&mut table, &mut detector, first_pending, &cost);
        assert_eq!((stats.cells_changed, detector.violation_count()), (0, 1));
    }

    #[test]
    fn clean_delta_untouched() {
        let s = schema();
        let cfds = suite(&s);
        let mut table = base();
        let delta = vec![vec![
            Value::from("44"),
            Value::from("131"),
            Value::from("Crichton"),
            Value::from("edi"),
            Value::from("EH8"),
        ]];
        let stats = IncRepair::repair_delta(&cfds, &mut table, delta, CostModel::uniform(5));
        assert_eq!(stats.cells_changed, 0);
        assert_eq!(stats.cost, 0.0);
    }

    #[test]
    fn cascading_constant_then_variable() {
        let s = schema();
        // Fixing city to 'mh' (constant) changes the (city)→street group
        // the tuple belongs to — the local fixpoint loop must handle it.
        let cfds = parse_cfds(
            "customer([cc='01', ac='908'] -> [city='mh'])\n\
             customer([city] -> [street])",
            &s,
        )
        .unwrap();
        let mut table = Table::new(s);
        table
            .push(vec!["44".into(), "1".into(), "CanonSt".into(), "mh".into(), "Z".into()])
            .unwrap();
        let delta = vec![vec![
            Value::from("01"),
            Value::from("908"),
            Value::from("OtherSt"),
            Value::from("nyc"),
            Value::from("Z2"),
        ]];
        IncRepair::repair_delta(&cfds, &mut table, delta, CostModel::uniform(5));
        assert!(satisfies(&table, &cfds));
        let last = table.rows().last().unwrap().1;
        assert_eq!(last[3], Value::from("mh"));
        assert_eq!(last[2], Value::from("CanonSt"));
    }

    /// The maintained-state repair against the value-keyed one it
    /// replaced, from printed seeds: identical tables and statistics
    /// (cost to the last bit) over clean, dirty and empty bases, appends,
    /// updates and deletes of base and pending tuples, and several rounds.
    #[test]
    fn maintained_state_repair_equals_the_value_keyed_oracle() {
        let s = schema();
        // Two members over ([cc, zip] -> [street]), one a block whose
        // constant row wants a street no tuple holds; a block over
        // ([cc, ac] -> [city]) with a set-valued RHS ahead of its
        // constants, a conflicting pair of constant rows, and a row a
        // single-row member repeats; and the cascade: `city` is the RHS
        // up there and the LHS of ([city] -> [street]).
        let cfds = parse_cfds(
            "customer([cc='44', zip] -> [street])\n\
             customer([cc, zip] -> [street]) {\n  '01', _ || _\n  '01', 'Z9' || 'Never St'\n}\n\
             customer([cc, ac] -> [city]) {\n  '44', _ || in ('edi', 'gla')\n  \
             '01', '908' || 'mh'\n  '86', '10' || 'bj'\n  '86', '10' || 'sh'\n}\n\
             customer([cc='01', ac='908'] -> [city='mh'])\n\
             customer([city] -> [street])",
            &s,
        )
        .unwrap();
        assert_eq!(IncrementalDetector::new(cfds.clone()).units(), 3);
        let domains: [&[&str]; 5] = [
            &["44", "01", "86"],
            &["131", "908", "10"],
            &["Crichton", "Mayfield", "High St", "Low St"],
            &["edi", "mh", "nyc", "bj", "gla"],
            &["EH8", "G1", "Z9", "07974"],
        ];
        let random_row = |next: &mut dyn FnMut(usize) -> usize| -> Vec<Value> {
            domains.iter().map(|d| Value::from(d[next(d.len())])).collect()
        };
        let mut cost = CostModel::uniform(5);
        cost.set_attr_weight(2, 0.5);
        cost.set_cell_weight(TupleId(7), 3, 2.0);
        let mut edits = 0;
        for seed in 0..1_200u64 {
            // xorshift64, as `cost`'s kernel test draws its pairs.
            let mut x = 0x9e3779b97f4a7c15u64 ^ (seed + 1).wrapping_mul(0xff51afd7ed558ccd);
            let mut next = move |m: usize| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % m as u64) as usize
            };
            // `ours` is written through its detector, `theirs` directly.
            let mut ours = Table::new(s.clone());
            let mut detector = IncrementalDetector::new(cfds.clone());
            let base_kind = seed % 3; // empty, dirty, clean
            for _ in 0..[0, 1, 1][base_kind as usize] * (1 + next(39)) {
                let id = ours.push(random_row(&mut next)).unwrap();
                detector.add(&ours, id, None);
                if base_kind == 2 && detector.violation_count() > 0 {
                    ours.delete(id).unwrap();
                    detector.remove(&ours, id, None);
                }
            }
            let mut theirs = ours.clone();
            let mut first_pending = ours.slots();
            for round in 0..2 + next(2) {
                for _ in 0..next(25) {
                    let live: Vec<TupleId> = ours.tuple_ids().collect();
                    match next(10) {
                        0 if !live.is_empty() => {
                            let id = live[next(live.len())];
                            ours.delete(id).unwrap();
                            detector.remove(&ours, id, None);
                            theirs.delete(id).unwrap();
                        }
                        1 | 2 if !live.is_empty() => {
                            let id = live[next(live.len())];
                            let attr = next(5);
                            let v = Value::from(domains[attr][next(domains[attr].len())]);
                            detector.write(&mut ours, id, attr, v.clone()).unwrap();
                            theirs.set_cell(id, attr, v).unwrap();
                        }
                        _ => {
                            let row = random_row(&mut next);
                            let id = ours.push(row.clone()).unwrap();
                            detector.add(&ours, id, None);
                            theirs.push(row).unwrap();
                        }
                    }
                }
                let got = IncRepair::repair_pending(&mut ours, &mut detector, first_pending, &cost);
                let want =
                    oracle::IncRepair::repair_pending(&cfds, &mut theirs, first_pending, &cost);
                let at = format!("seed {seed}, round {round}");
                assert_eq!(
                    ours.rows().collect::<Vec<_>>(),
                    theirs.rows().collect::<Vec<_>>(),
                    "{at}"
                );
                assert_eq!(
                    (got.tuples_edited, got.cells_changed, got.cost.to_bits()),
                    (want.tuples_edited, want.cells_changed, want.cost.to_bits()),
                    "{at}: {got:?} vs {want:?}"
                );
                assert_eq!(
                    detector.report(&ours),
                    NativeEngine.run(&DetectJob::on_table(&ours, &cfds)).unwrap(),
                    "{at}: the state the edits went through is the table's"
                );
                edits += got.cells_changed;
                first_pending = ours.slots();
            }
        }
        assert!(edits > 10_000, "{edits} edits: the suite must bite");
    }
}
