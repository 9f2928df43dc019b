//! `IncRepair` — repairing a delta against a clean, trusted base.
//!
//! The setting of Cong et al. §5 (and the tutorial's open problem §6d):
//! the base instance already satisfies the suite; a batch of new tuples
//! arrives; repair *only the new tuples* so the combined instance is
//! consistent. The base is authoritative — conflicts between a delta
//! tuple and a base group resolve toward the base value. Cost is
//! `O(|Δ|)` expected (hash probes per delta tuple), versus re-running
//! [`crate::BatchRepair`] over base+delta — the crossover measured in
//! experiment E6.

use crate::cost::{CostModel, DistanceScratch};
use revival_constraints::cfd::merge_by_embedded_fd;
use revival_constraints::pattern::PatternValue;
use revival_constraints::Cfd;
use revival_relation::{Table, TupleId, Value};
use std::collections::HashMap;

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

/// Incremental repairer holding per-CFD group state of the base.
pub struct IncRepair {
    cfds: Vec<Cfd>,
    cost: CostModel,
    /// Per CFD: LHS key → canonical RHS value (from base, extended by
    /// accepted delta tuples).
    groups: Vec<HashMap<Vec<Value>, Value>>,
    /// Distance buffers shared by every edit this repairer prices.
    scratch: DistanceScratch,
}

impl IncRepair {
    /// Build from a suite and the clean base table.
    ///
    /// The constructor indexes the base once (`O(|base| · |Σ|)`); each
    /// subsequent [`IncRepair::repair_tuple`] is `O(|Σ|)` expected.
    pub fn new(cfds: &[Cfd], base: &Table, cost: CostModel) -> Self {
        Self::new_excluding(cfds, base, cost, &std::collections::HashSet::new())
    }

    /// Like [`IncRepair::new`], but skip `exclude` tuples when indexing
    /// the base. A streaming session repairs its pending delta *in
    /// place* inside the same table the base lives in — excluding the
    /// pending ids keeps the base authoritative (a dirty pending tuple
    /// never becomes its group's canonical value) without cloning the
    /// table.
    pub fn new_excluding(
        cfds: &[Cfd],
        base: &Table,
        cost: CostModel,
        exclude: &std::collections::HashSet<TupleId>,
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

    /// The merged suite.
    pub fn cfds(&self) -> &[Cfd] {
        &self.cfds
    }

    /// Repair one incoming tuple in place so that base ∪ accepted ∪
    /// {tuple} stays consistent, then absorb it into the group state.
    ///
    /// Returns the number of cells edited.
    pub fn repair_tuple(&mut self, id: TupleId, row: &mut [Value], stats: &mut IncStats) {
        let mut edited = false;
        // Iterate to a local fixpoint: fixing one CFD can affect another.
        for _ in 0..self.cfds.len() + 2 {
            let mut changed = false;
            for (cfd, groups) in self.cfds.iter().zip(&self.groups) {
                // Constant rows first.
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
                // Variable rows: conform to the group's canonical value.
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
        // Absorb into group state so later deltas see this tuple.
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

    /// Repair a whole delta batch against the base, appending the
    /// repaired tuples to `base` and returning stats.
    pub fn repair_delta(
        cfds: &[Cfd],
        base: &mut Table,
        delta: Vec<Vec<Value>>,
        cost: CostModel,
    ) -> IncStats {
        let mut inc = IncRepair::new(cfds, base, cost);
        let mut stats = IncStats::default();
        for (i, mut row) in delta.into_iter().enumerate() {
            inc.repair_tuple(TupleId(base.len() as u64 + i as u64), &mut row, &mut stats);
            base.push_unchecked(row);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revival_constraints::parser::parse_cfds;
    use revival_detect::native::satisfies;
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

    #[test]
    fn excluded_tuples_never_become_canonical() {
        let s = schema();
        let cfds = suite(&s);
        let mut table = base();
        // A dirty tuple already sits *inside* the table (the streaming
        // pending-delta case): excluded from indexing, it must conform
        // to the base's street rather than anchor its own.
        let dirty = table
            .push(vec!["44".into(), "131".into(), "Mayfield".into(), "edi".into(), "EH8".into()])
            .unwrap();
        let exclude = std::collections::HashSet::from([dirty]);
        let mut inc = IncRepair::new_excluding(&cfds, &table, CostModel::uniform(5), &exclude);
        let mut row = table.get(dirty).unwrap();
        let mut stats = IncStats::default();
        inc.repair_tuple(dirty, &mut row, &mut stats);
        assert_eq!(row[2], Value::from("Crichton"));
        assert_eq!(stats.cells_changed, 1);
        // An excluded tuple in a group no base row covers anchors the
        // group itself and stays unchanged.
        let mut t2 = base();
        let d2 = t2
            .push(vec!["44".into(), "131".into(), "Dirty".into(), "edi".into(), "G77".into()])
            .unwrap();
        let exclude = std::collections::HashSet::from([d2]);
        let mut inc = IncRepair::new_excluding(&cfds, &t2, CostModel::uniform(5), &exclude);
        let mut row = t2.get(d2).unwrap();
        inc.repair_tuple(d2, &mut row, &mut IncStats::default());
        assert_eq!(row[2], Value::from("Dirty"));
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
}
