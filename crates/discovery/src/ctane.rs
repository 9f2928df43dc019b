//! Bounded CTANE — discovery of general (variable) CFDs.
//!
//! General CFDs mix wildcards and constants in the LHS pattern:
//! `([cc='44', zip] → [street])`. The search is the conditional arm of
//! the level-wise miner in [`crate::tane::mine_lattice`]: for each
//! candidate embedded FD that fails the (confidence) check on the whole
//! table, single-constant patterns over the most frequent values are
//! probed on the matching sub-instance. This module owns the probe
//! kernel: [`pattern_error`], one interned grouping pass over the
//! condition item's row list — no `Vec<Value>` keys.

use revival_relation::{GroupBy, Sym, Table};

/// `g3`-style error of the embedded FD `lhs → rhs` restricted to
/// `rows` — the live slots of the item the pattern conditions on, from
/// the table's [`crate::items::ItemIndex`], so the probe groups the
/// pattern's own support instead of filtering the table for it. The
/// error is the minimum number of those tuples to remove so the
/// conditional FD holds exactly; confidence is `1 − err/rows.len()`.
pub(crate) fn pattern_error(table: &Table, lhs: &[usize], rhs: usize, rows: &[u32]) -> usize {
    // Per LHS-projection group: the distinct RHS symbols seen with
    // their multiplicities (few per group, so a Vec beats a map).
    let mut groups: GroupBy<Box<[Sym]>, Vec<(Sym, usize)>> = GroupBy::new();
    let proj = table.proj(lhs);
    let rhs_col = table.col(rhs);
    for &slot in rows {
        let slot = slot as usize;
        let counts = groups.entry_mut(
            proj.hash_at(slot),
            |k| proj.matches_at(slot, k),
            || (proj.key_at(slot), Vec::new()),
        );
        let r = rhs_col[slot];
        match counts.iter_mut().find(|(s, _)| *s == r) {
            Some((_, c)) => *c += 1,
            None => counts.push((r, 1)),
        }
    }
    let mut err = 0usize;
    for (_, counts) in groups.iter() {
        let total: usize = counts.iter().map(|(_, c)| *c).sum();
        let keep = counts.iter().map(|(_, c)| *c).max().unwrap_or(0);
        err += total - keep;
    }
    err
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DiscoverOptions, DiscoveryStats};
    use revival_constraints::pattern::PatternValue;
    use revival_constraints::Cfd;
    use revival_relation::{Schema, Type};

    /// Bounded CTANE: the lattice's exact rules, one tableau row each,
    /// with the search accounting.
    fn ctane(
        t: &Table,
        max_lhs: usize,
        min_support: usize,
        top_values: usize,
    ) -> (Vec<Cfd>, DiscoveryStats) {
        let opts =
            DiscoverOptions { min_support, max_lhs, top_values, ..DiscoverOptions::default() };
        let (mined, stats) = crate::tane::mine_lattice(t, &opts, 1);
        (mined.into_iter().map(|m| m.cfd).collect(), stats)
    }

    fn table() -> Table {
        // zip → street holds only where cc='44'; globally violated.
        let s = Schema::builder("customer")
            .attr("cc", Type::Str)
            .attr("zip", Type::Str)
            .attr("street", Type::Str)
            .build();
        let mut t = Table::new(s);
        let rows = [
            ("44", "EH8", "Crichton"),
            ("44", "EH8", "Crichton"),
            ("44", "EH8", "Crichton"),
            ("44", "G1", "High"),
            ("44", "G1", "High"),
            ("01", "EH8", "Other1"), // breaks global zip → street
            ("01", "EH8", "Other2"),
            ("01", "10001", "5th"),
            ("01", "10001", "6th"), // breaks zip→street within cc=01 too
            ("01", "10001", "6th"),
        ];
        for (cc, zip, street) in rows {
            t.push(vec![cc.into(), zip.into(), street.into()]).unwrap();
        }
        t
    }

    #[test]
    fn finds_conditional_but_not_global_fd() {
        let t = table();
        let (cfds, _) = ctane(&t, 2, 3, 4);
        // ([cc='44', zip] → street) should be found…
        let zip = 1usize;
        let street = 2usize;
        let conditional = cfds.iter().any(|c| {
            c.lhs == vec![0, zip]
                && c.rhs == street
                && c.tableau[0].lhs[0] == PatternValue::constant("44")
                && c.tableau[0].lhs[1].is_wildcard()
        });
        assert!(conditional, "conditional CFD missing: {cfds:?}");
        // …and the global FD zip → street must NOT (it is violated).
        let global = cfds
            .iter()
            .any(|c| c.lhs == vec![zip] && c.rhs == street && c.tableau[0].is_embedded_fd_row());
        assert!(!global);
    }

    #[test]
    fn discovered_cfds_hold() {
        let t = table();
        let (cfds, _) = ctane(&t, 2, 5, 8);
        for c in &cfds {
            assert!(c.satisfied_by(&t), "discovered CFD violated: {:?}", c);
        }
    }

    #[test]
    fn support_threshold_prunes_rare_patterns() {
        let t = table();
        let (strict, _) = ctane(&t, 2, 100, 8);
        assert!(strict.is_empty());
    }

    #[test]
    fn plain_fd_subsumes_conditionals() {
        // When the global FD holds, no conditional row for it is emitted.
        let s = Schema::builder("r").attr("a", Type::Str).attr("b", Type::Str).build();
        let mut t = Table::new(s);
        for i in 0..10 {
            let a = format!("k{}", i % 3);
            let b = format!("v{}", i % 3);
            t.push(vec![a.into(), b.into()]).unwrap();
        }
        let (cfds, _) = ctane(&t, 2, 2, 8);
        let rows: Vec<&Cfd> = cfds.iter().filter(|c| c.lhs == vec![0] && c.rhs == 1).collect();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].tableau[0].is_embedded_fd_row());
    }

    #[test]
    fn caps_are_reported_not_silent() {
        let t = table();
        // top_values=1 drops condition values on every probed attribute.
        let (_, stats) = ctane(&t, 1, 3, 1);
        assert!(stats.candidates_pruned > 0, "{stats:?}");
        assert!(stats.lattice_truncated, "max_lhs=1 over arity 3 cuts the lattice: {stats:?}");
        assert_eq!(stats.levels, 1);
        assert!(stats.candidates_checked > 0);
    }

    #[test]
    fn pattern_probe_matches_oracle() {
        let t = table();
        let index = crate::items::ItemIndex::build(&t);
        let rows_of = |value: &str| {
            let sym = t.pool().lookup(&value.into()).unwrap();
            index.rows(index.items_of(0).find(|&id| index.item(id).1 == sym).unwrap())
        };
        // [cc='44'] restricted zip → street: 5 matching rows, exact.
        assert_eq!(rows_of("44").len(), 5);
        assert_eq!(pattern_error(&t, &[0, 1], 2, rows_of("44")), 0);
        // cc='01': EH8 splits {Other1, Other2} (1 removal) and 10001
        // splits {5th, 6th×2} (1 removal).
        assert_eq!(rows_of("01").len(), 5);
        assert_eq!(pattern_error(&t, &[0, 1], 2, rows_of("01")), 2);
    }
    #[test]
    fn probes_touch_exactly_the_supports_they_group() {
        // With `top_values` covering every value and `min_support` 1,
        // the probes of one failing candidate `X → A` group, per
        // attribute of `X`, each value's rows once: |X| · n rows, where
        // a table scan per probe would read |X| · distinct · n.
        let t = table();
        let run = |max_lhs| {
            let (cfds, stats) = ctane(&t, max_lhs, 1, 8);
            let plain = cfds.iter().filter(|c| c.is_plain_fd()).count();
            (stats.candidates_checked - plain, stats.support_rows_touched)
        };
        let (failing_1, touched_1) = run(1);
        assert!(failing_1 > 0);
        assert_eq!(touched_1, failing_1 * t.len());
        let (failing_2, touched_2) = run(2);
        assert!(failing_2 > failing_1, "level 2 must probe too");
        assert_eq!(touched_2, touched_1 + (failing_2 - failing_1) * 2 * t.len());
    }
}
