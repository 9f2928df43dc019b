//! Incremental CFD violation detection: the batch kernel kept warm.
//!
//! The tutorial lists *"incremental repairing methods"* among the open
//! problems (§6d); for detection the TODS paper already gives the
//! technique reproduced here: keep, per embedded FD, a hash of LHS
//! groups with their RHS multiset, and update it per inserted/deleted
//! tuple. Each delta tuple costs `O(#masks)` probes per unit, versus a
//! full `O(n)` re-detection — the trade-off measured in experiment E11.
//!
//! The state is [`crate::native`]'s scan state, maintained instead of
//! rebuilt: the same units (`plan_units`, one per embedded FD), the same
//! `ConstIndex` per unit, and the unit's LHS classes as a
//! [`MaintainedPartition`] — `relation::partition`'s classes kept warm,
//! keyed by the **table's own symbols**. Where the batch scan groups each
//! *attribute set* once for every unit naming it, this state keeps one
//! partition per *unit*: an event is one tuple, and the RHS counts are
//! the unit's own. Per class the unit keeps only how many (member,
//! variable row) pairs its key matches; a report hands the violating
//! classes to batch detect's emitter. Events are `(table, tuple id)`:
//! [`IncrementalDetector::add`] after a push, `remove` after a delete,
//! [`IncrementalDetector::write`] for a cell write (the one place the
//! `remove` → `Table::set_cell` → `add` sequence is spelled). Incremental
//! repair reads this state instead of grouping the relation again:
//! [`IncrementalDetector::constant_demand`], `group_demand`.
//!
//! **Invariant:** a detector reads the pool of the table it was loaded
//! from. Whatever *replaces* that table (a re-registration, a batch
//! repair's output) rebuilds the detector.
//!
//! **Recompile rule:** a compiled constant row names pool symbols, and a
//! constant the pool has not met compiles to "matches nothing". The pool
//! is append-only, so an index whose constants all resolved is valid for
//! the table's life and never compiled again (a mined suite, whose
//! constants come from the table, compiles exactly once). One with
//! unresolved constants is recompiled at the next event after the pool
//! grew — `O(tableau rows of the unit)`, what a sweep of the tableau
//! paid on *every* event. Tuples already added need no second look:
//! their cells predate the new symbols, so every row answers for them
//! as it did.

use crate::native::{emit_variable_violations, in_key_order, plan_units, ConstIndex, NONE};
use crate::report::{TupleBits, Violation, ViolationReport};
use revival_constraints::cfd::Cfd;
use revival_constraints::pattern::PatternValue;
use revival_relation::partition::MaintainedPartition;
use revival_relation::{AttrId, Error, Result, Sym, Table, TupleId, Value};
use std::collections::BTreeMap;

/// State for one unit: the CFDs sharing one embedded FD. Emptied classes
/// keep their numbers, so state is `O(distinct keys ever seen)` rather
/// than `O(live keys)` (the price of probing without a key per delta).
struct UnitState {
    /// Suite indices of the members, first-seen order.
    members: Vec<usize>,
    lhs: Vec<AttrId>,
    rhs: AttrId,
    index: ConstIndex,
    /// The pool size `index` was compiled against while some constant
    /// it names was still absent; `None` once every constant resolved.
    unresolved_at: Option<usize>,
    /// Per member: tuple → tableau-row index of its constant violation.
    consts: Vec<BTreeMap<TupleId, usize>>,
    any_var: bool,
    classes: MaintainedPartition,
    /// Per class: the (member, variable row) pairs whose LHS pattern its
    /// key matches (counted once, when the class is made).
    matched: Vec<usize>,
    /// Those pairs summed over the classes holding two or more RHS values.
    violating_pairs: usize,
}

impl UnitState {
    /// Does this unit read `attr` (every unit reads "any attribute")?
    fn reads(&self, attr: Option<AttrId>) -> bool {
        attr.is_none_or(|a| self.rhs == a || self.lhs.contains(&a))
    }

    /// Does class `c` violate: its key matches a variable row and it
    /// holds two or more RHS values?
    fn violates(&self, c: usize) -> bool {
        self.matched[c] > 0 && self.classes.error(c) > 0
    }

    /// The violating classes: each its key's symbols and its slots.
    fn violating(&self) -> impl Iterator<Item = (impl Iterator<Item = Sym> + Clone + '_, &[u32])> {
        let violating = (0..self.matched.len()).filter(|&c| self.violates(c));
        violating.map(|c| (self.classes.key(c).iter().copied(), self.classes.class(c)))
    }

    /// Apply the recompile rule (module doc) against `table`'s pool.
    fn refresh(&mut self, cfds: &[Cfd], table: &Table) {
        let pool = table.pool();
        if self.unresolved_at.is_some_and(|len| pool.len() > len) {
            let rows = || self.members.iter().map(|&i| &cfds[i]);
            self.index = ConstIndex::compile(rows(), pool);
            let resolved = rows()
                .flat_map(Cfd::constant_rows)
                .all(|tp| tp.lhs.iter().chain([&tp.rhs]).all(|p| p.resolves_in(pool)));
            self.unresolved_at = (!resolved).then_some(pool.len());
        }
    }
}

/// Maintains CFD violations under tuple insertions, deletions and cell
/// writes on one [`Table`] (see the module doc for the invariant).
pub struct IncrementalDetector {
    cfds: Vec<Cfd>,
    units: Vec<UnitState>,
    /// Scratch of the constant probe, reused across events: the lowest
    /// violated tableau row per member, and the members that have one.
    first: Vec<usize>,
    touched: Vec<usize>,
}

impl IncrementalDetector {
    /// Empty detector for a suite over one relation.
    pub fn new(cfds: Vec<Cfd>) -> Self {
        let units: Vec<UnitState> = plan_units(&cfds)
            .into_iter()
            .map(|members| {
                let fd = &cfds[members[0]];
                UnitState {
                    lhs: fd.lhs.clone(),
                    rhs: fd.rhs,
                    index: ConstIndex::default(),
                    // Compiled at the first event, against that table's pool.
                    unresolved_at: Some(0),
                    consts: vec![BTreeMap::new(); members.len()],
                    any_var: members.iter().any(|&i| cfds[i].variable_rows().next().is_some()),
                    classes: MaintainedPartition::new(&fd.lhs, fd.rhs),
                    matched: Vec::new(),
                    violating_pairs: 0,
                    members,
                }
            })
            .collect();
        let widest = units.iter().map(|u| u.members.len()).max().unwrap_or(0);
        IncrementalDetector { cfds, units, first: vec![NONE; widest], touched: Vec::new() }
    }

    /// Bulk-load an existing table (equivalent to adding every live row).
    pub fn load(&mut self, table: &Table) {
        for id in table.tuple_ids() {
            self.add(table, id, None);
        }
    }

    /// Account for tuple `id` of `table`: after a push, or (inside
    /// [`IncrementalDetector::write`]) after a write to its cell
    /// `written` — then only the units reading that attribute, which
    /// [`IncrementalDetector::remove`] took it out of.
    pub fn add(&mut self, table: &Table, id: TupleId, written: Option<AttrId>) {
        let IncrementalDetector { cfds, units, first, touched } = self;
        let slot = id.0 as usize;
        for unit in units.iter_mut().filter(|u| u.reads(written)) {
            unit.refresh(cfds, table);
            if !unit.index.is_empty() {
                unit.index.probe(table, (&unit.lhs, unit.rhs), slot, first, touched);
                while let Some(m) = touched.pop() {
                    unit.consts[m].insert(id, std::mem::replace(&mut first[m], NONE));
                }
            }
            if !unit.any_var {
                continue;
            }
            let (c, split) = unit.classes.add(table, slot);
            if c == unit.matched.len() {
                // A new class: its key meets the members' variable rows
                // once (patterns match values, not symbols).
                let pool = table.pool();
                let key: Vec<Value> =
                    unit.classes.key(c).iter().map(|&s| pool.value(s).clone()).collect();
                let rows = unit.members.iter().flat_map(|&i| cfds[i].variable_rows());
                unit.matched.push(rows.filter(|tp| tp.lhs_matches(&key)).count());
            }
            if split {
                unit.violating_pairs += unit.matched[c];
            }
        }
    }

    /// Forget tuple `id` of `table`, read off its slot as it stands:
    /// after a delete — a tombstoned slot keeps its symbols — or (inside
    /// [`IncrementalDetector::write`]) *before* a write to its cell
    /// `written`, then only the units reading that attribute.
    pub fn remove(&mut self, table: &Table, id: TupleId, written: Option<AttrId>) {
        for unit in self.units.iter_mut().filter(|u| u.reads(written)) {
            for consts in &mut unit.consts {
                consts.remove(&id);
            }
            if let Some((c, true)) = unit.classes.remove(table, id.0 as usize) {
                unit.violating_pairs -= unit.matched[c];
            }
        }
    }

    /// Overwrite cell `attr` of live tuple `id`, re-entering only the
    /// units that read `attr`. A refused write (dead tuple, unknown
    /// attribute, type mismatch) leaves table and state as they were.
    pub fn write(
        &mut self,
        table: &mut Table,
        id: TupleId,
        attr: AttrId,
        value: Value,
    ) -> Result<()> {
        if !table.contains(id) {
            return Err(Error::NoSuchTuple(id.0));
        }
        self.remove(table, id, Some(attr));
        let written = table.set_cell(id, attr, value);
        self.add(table, id, Some(attr));
        written
    }

    /// Number of units (embedded FDs) — what the demand reads index by.
    pub fn units(&self) -> usize {
        self.units.len()
    }

    /// The RHS attribute of `unit` and the constant its first constant
    /// row that tuple `id` violates (member, then tableau order) wants
    /// there. Only `= c` is a demand: `≠ c` and `∈ {…}` name no value.
    pub fn constant_demand(&self, unit: usize, id: TupleId) -> Option<(AttrId, &Value)> {
        let unit = &self.units[unit];
        let (m, &row) = unit.consts.iter().enumerate().find_map(|(m, c)| Some((m, c.get(&id)?)))?;
        match &self.cfds[unit.members[m]].tableau[row].rhs {
            PatternValue::Const(c) => Some((unit.rhs, c)),
            _ => None,
        }
    }

    /// The RHS attribute of `unit` and the value the **eldest** member
    /// (lowest id) of live tuple `id`'s class holds there, when the
    /// class's key matches a variable row and the tuple disagrees with
    /// it. Ids are append-only slots, so against a trusted base the
    /// eldest is a base tuple if the class has one, else the first
    /// arrival. A constant read: the class's first slot.
    pub fn group_demand<'t>(
        &self,
        table: &'t Table,
        unit: usize,
        id: TupleId,
    ) -> Option<(AttrId, &'t Value)> {
        let unit = &self.units[unit];
        let slot = id.0 as usize;
        let c = unit.classes.find(table, slot).filter(|&c| unit.violates(c))?;
        let rhs = table.col(unit.rhs);
        let eldest = rhs[unit.classes.class(c)[0] as usize];
        (eldest != rhs[slot]).then(|| (unit.rhs, table.pool().value(eldest)))
    }

    /// Total number of violations (constant tuple violations plus
    /// violating (class, variable-row) pairs) — O(#CFDs).
    pub fn violation_count(&self) -> usize {
        let consts = |u: &UnitState| u.consts.iter().map(BTreeMap::len).sum::<usize>();
        self.units.iter().map(|u| consts(u) + u.violating_pairs).sum()
    }

    /// The first `max` violations of [`IncrementalDetector::report`], and
    /// only those built: per CFD in suite order, its constant violations in
    /// tuple order, then its variable ones in key order, reaching only the
    /// units of the CFDs listed (keys through `table`'s pool, the table the
    /// events came from). `implicated` gets every tuple of the whole report:
    /// each constant violator and each violating class's slots.
    pub fn listing(&self, table: &Table, max: usize, implicated: &mut TupleBits) -> Vec<Violation> {
        for unit in &self.units {
            unit.consts.iter().flat_map(BTreeMap::keys).for_each(|&t| implicated.insert(t));
            let slots = unit.violating().flat_map(|(_, slots)| slots);
            slots.for_each(|&s| implicated.insert(TupleId(s.into())));
        }
        let mut ordered: Vec<Option<Vec<_>>> = self.units.iter().map(|_| None).collect();
        let mut out = Vec::new();
        for (cfd, spec) in self.cfds.iter().enumerate() {
            let (u, unit, m) = (self.units.iter().enumerate())
                .find_map(|(u, unit)| Some((u, unit, unit.members.iter().position(|&i| i == cfd)?)))
                .expect("every CFD is a member of one unit");
            let constant = |(&tuple, &row)| Violation::CfdConstant { cfd, row, tuple };
            out.extend(unit.consts[m].iter().take(max - out.len()).map(constant));
            if out.len() < max && spec.variable_rows().next().is_some() {
                let pool = table.pool();
                let ordered =
                    ordered[u].get_or_insert_with(|| in_key_order(unit.violating(), pool));
                emit_variable_violations(cfd, spec, ordered, pool, &mut out, max);
            }
        }
        out
    }

    /// The whole report, as batch detect emits it:
    /// [`IncrementalDetector::listing`] uncapped.
    pub fn report(&self, table: &Table) -> ViolationReport {
        let violations = self.listing(table, usize::MAX, &mut TupleBits::default());
        ViolationReport { violations }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DetectJob, Detector, NativeEngine};
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

    fn row(r: [&str; 4]) -> Vec<Value> {
        r.iter().map(|s| Value::from(*s)).collect()
    }

    /// Push a row and tell the detector.
    fn push(t: &mut Table, d: &mut IncrementalDetector, r: [&str; 4]) -> TupleId {
        let id = t.push(row(r)).unwrap();
        d.add(t, id, None);
        id
    }

    #[test]
    fn insert_creates_and_delete_removes_violation() {
        let s = schema();
        let mut t = Table::new(s.clone());
        let mut d = IncrementalDetector::new(suite(&s));
        push(&mut t, &mut d, ["44", "EH8", "Crichton", "edi"]);
        assert_eq!(d.violation_count(), 0);
        let b = push(&mut t, &mut d, ["44", "EH8", "Mayfield", "edi"]);
        assert_eq!(d.violation_count(), 1);
        t.delete(b).unwrap();
        d.remove(&t, b, None);
        assert_eq!(d.violation_count(), 0);
    }

    #[test]
    fn constant_violations_tracked() {
        let s = schema();
        let mut t = Table::new(s.clone());
        let mut d = IncrementalDetector::new(suite(&s));
        let id = push(&mut t, &mut d, ["01", "07974", "MtnAve", "nyc"]);
        assert_eq!(d.violation_count(), 1);
        // Fixing the city — a value the pool had not met when the index
        // was first compiled — removes the violation; only the unit
        // reading `city` is re-entered.
        d.remove(&t, id, Some(3));
        t.set_cell(id, 3, "mh".into()).unwrap();
        d.add(&t, id, Some(3));
        assert_eq!(d.violation_count(), 0);
    }

    /// What `group_demand` must answer, read off the live rows: the
    /// minimum live member of `id`'s key group, when the group's key
    /// matches a member's variable row, the group holds two or more RHS
    /// values and `id` disagrees with that member.
    fn brute_group_demand<'t>(
        d: &IncrementalDetector,
        t: &'t Table,
        unit: usize,
        id: TupleId,
    ) -> Option<(AttrId, &'t Value)> {
        let (u, slot) = (&d.units[unit], id.0 as usize);
        let same_key = |s: usize| u.lhs.iter().all(|&a| t.col(a)[s] == t.col(a)[slot]);
        let group: Vec<usize> = t.live_slots().filter(|&s| same_key(s)).collect();
        let values: Vec<Value> = u.lhs.iter().map(|&a| t.get(id).unwrap()[a].clone()).collect();
        let mut matched = u.members.iter().flat_map(|&i| d.cfds[i].variable_rows());
        let rhs = t.col(u.rhs);
        let eldest = rhs[group[0]];
        let split = group.iter().any(|&s| rhs[s] != eldest);
        let demand = split && matched.any(|tp| tp.lhs_matches(&values));
        (demand && eldest != rhs[slot]).then(|| (u.rhs, t.pool().value(eldest)))
    }

    /// Random pushes, deletes and cell writes (through
    /// [`IncrementalDetector::write`]); after every op the report and the
    /// count are the batch scan's, and every live tuple's `group_demand`
    /// names its group's eldest member, read off the live rows.
    #[test]
    fn report_matches_native_after_random_edits() {
        use rand::prelude::*;
        let s = schema();
        let cfds = parse_cfds(
            "customer([cc='44', zip] -> [street])\n\
             customer([cc='01', zip='07974'] -> [city='mh'])\n\
             customer([zip] -> [city])",
            &s,
        )
        .unwrap();
        let alphabets: [&[&str]; 4] = [
            &["44", "01"],
            &["EH8", "07974", "G1"],
            &["Crichton", "Mayfield", "MtnAve"],
            &["edi", "mh", "nyc"],
        ];
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = Table::new(s.clone());
            let mut d = IncrementalDetector::new(cfds.clone());
            let mut live: Vec<TupleId> = Vec::new();
            for op in 0..120 {
                match rng.gen_range(0..10) {
                    0..=4 => {
                        let r = alphabets.map(|values| *values.choose(&mut rng).unwrap());
                        live.push(push(&mut t, &mut d, r));
                    }
                    5 | 6 if !live.is_empty() => {
                        let id = live.swap_remove(rng.gen_range(0..live.len()));
                        t.delete(id).unwrap();
                        d.remove(&t, id, None);
                    }
                    _ if !live.is_empty() => {
                        let (id, attr) =
                            (*live.choose(&mut rng).unwrap(), rng.gen_range(0..4usize));
                        let value = *alphabets[attr].choose(&mut rng).unwrap();
                        d.write(&mut t, id, attr, value.into()).unwrap();
                    }
                    _ => continue,
                }
                let ctx = format!("seed {seed}, op {op}");
                let full = NativeEngine.run(&DetectJob::on_table(&t, &cfds)).unwrap();
                assert_eq!(d.report(&t), full, "{ctx}");
                assert_eq!(d.violation_count(), full.len(), "{ctx}");
                for (&id, unit) in live.iter().flat_map(|id| (0..d.units()).map(move |u| (id, u))) {
                    let want = brute_group_demand(&d, &t, unit, id);
                    assert_eq!(d.group_demand(&t, unit, id), want, "{ctx}: unit {unit}, {id:?}");
                }
            }
        }
    }

    #[test]
    fn load_equivalent_to_inserts() {
        let s = schema();
        let mut t = Table::new(s.clone());
        t.push(row(["44", "EH8", "A", "edi"])).unwrap();
        t.push(row(["44", "EH8", "B", "edi"])).unwrap();
        let mut d = IncrementalDetector::new(suite(&s));
        d.load(&t);
        assert_eq!(d.violation_count(), 1);
    }

    /// The two reads repair stands on, and the write that keeps them true.
    #[test]
    fn demands_name_the_eldest_member_and_the_first_constant_row() {
        let s = schema();
        let mut t = Table::new(s.clone());
        let mut d = IncrementalDetector::new(suite(&s));
        assert_eq!(d.units(), 2);
        let a = push(&mut t, &mut d, ["44", "EH8", "Crichton", "edi"]);
        let b = push(&mut t, &mut d, ["44", "EH8", "Mayfield", "edi"]);
        let c = push(&mut t, &mut d, ["01", "07974", "MtnAve", "nyc"]);
        // The eldest member anchors its group; the younger one conforms.
        assert_eq!(d.group_demand(&t, 0, a), None);
        assert_eq!(d.group_demand(&t, 0, b), Some((2, &Value::from("Crichton"))));
        // `cc='01'` matches no variable row: no group demand, one constant.
        assert_eq!(d.group_demand(&t, 0, c), None);
        assert_eq!(d.constant_demand(1, c), Some((3, &Value::from("mh"))));
        assert_eq!(d.constant_demand(1, a), None);
        // With the eldest gone the next in line anchors.
        t.delete(a).unwrap();
        d.remove(&t, a, None);
        assert_eq!(d.group_demand(&t, 0, b), None);
        // A write is the demand met — and a refused one changes nothing.
        d.write(&mut t, c, 3, "mh".into()).unwrap();
        assert_eq!((d.constant_demand(1, c), d.violation_count()), (None, 0));
        assert!(d.write(&mut t, c, 9, "x".into()).is_err(), "unknown attribute");
        assert!(d.write(&mut t, a, 3, "x".into()).is_err(), "dead tuple");
        assert_eq!(d.violation_count(), 0);
        assert_eq!(d.report(&t), NativeEngine.run(&DetectJob::on_table(&t, &suite(&s))).unwrap());
    }

    /// A multi-row block and a single-row CFD over one embedded FD share
    /// a unit, yet each reports as a detector of its own would.
    #[test]
    fn members_of_one_unit_report_as_detectors_of_their_own() {
        let s = schema();
        let cfds = parse_cfds(
            "customer([cc, zip] -> [street]) {\n  '44', _ || _\n  '01', '07974' || 'MtnAve'\n}\n\
             customer([cc='01', zip] -> [street])",
            &s,
        )
        .unwrap();
        let mut t = Table::new(s.clone());
        for r in [
            ["44", "EH8", "Crichton", "edi"],
            ["44", "EH8", "Mayfield", "edi"],
            ["01", "07974", "5th", "mh"],
            ["01", "07974", "MtnAve", "mh"],
            ["01", "10001", "5th", "nyc"],
        ] {
            t.push(row(r)).unwrap();
        }
        let mut both = IncrementalDetector::new(cfds.clone());
        both.load(&t);
        assert_eq!(both.units.len(), 1, "one embedded FD, one state");
        let mut apart = ViolationReport::default();
        let mut count = 0;
        for (i, cfd) in cfds.iter().enumerate() {
            let mut alone = IncrementalDetector::new(vec![cfd.clone()]);
            alone.load(&t);
            count += alone.violation_count();
            apart.violations.extend(alone.report(&t).violations.into_iter().map(|mut v| {
                if let Violation::CfdConstant { cfd, .. } | Violation::CfdVariable { cfd, .. } =
                    &mut v
                {
                    *cfd = i;
                }
                v
            }));
        }
        assert_eq!(both.report(&t), apart);
        assert_eq!((both.violation_count(), count), (3, 3), "{apart:?}");
        assert_eq!(both.report(&t), NativeEngine.run(&DetectJob::on_table(&t, &cfds)).unwrap());
    }
}
