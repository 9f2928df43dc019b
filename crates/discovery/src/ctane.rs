//! Bounded CTANE — discovery of general (variable) CFDs.
//!
//! General CFDs mix wildcards and constants in the LHS pattern:
//! `([cc='44', zip] → [street])`. The search is the conditional arm of
//! the level-wise miner in [`crate::tane::mine_lattice`]: for each
//! candidate embedded FD that fails the (confidence) check on the whole
//! table, single-constant patterns over the most frequent values are
//! probed on the matching sub-instance. This module owns the probe,
//! `condition_errors`: the condition attribute is in `X`, so every
//! class of `π_X` matches a pattern wholly or not at all, and a
//! pattern's error is a sum of the class errors the product already
//! gave — one read per class, no row of the sub-instance regrouped.

use revival_relation::partition::{ItemId, ItemIndex, Partition};

/// The `g3` error of `X → A` under `attr = v` for each probed item
/// `(attr, v)`, `attr ∈ X`: the sum of the errors (`class_errors`, from
/// [`Partition::product`]) of the classes of `px = π_X` whose first
/// slot carries the item. `buckets` is per-item scratch, all zero
/// before and after.
pub(crate) fn condition_errors(
    index: &ItemIndex<'_>,
    px: &Partition,
    class_errors: &[u32],
    attr: usize,
    probed: &[ItemId],
    buckets: &mut [u32],
) -> Vec<u32> {
    let failing = || px.classes().zip(class_errors).filter(|&(_, &err)| err > 0);
    for (class, &err) in failing() {
        buckets[index.id_at(attr, class[0]) as usize] += err;
    }
    let errors = probed.iter().map(|&item| buckets[item as usize]).collect();
    for (class, _) in failing() {
        buckets[index.id_at(attr, class[0]) as usize] = 0;
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DiscoverOptions, DiscoveryStats};
    use crate::testkit::{lhs_sets, partition_of, random_table};
    use revival_constraints::pattern::PatternValue;
    use revival_constraints::Cfd;
    use revival_relation::partition::ItemScratch;
    use revival_relation::{Schema, Table, Type};

    /// The row probe the class-error sums replaced, kept verbatim as
    /// their oracle: one interned grouping pass over the condition
    /// item's row list.
    mod oracle {
        use revival_relation::{GroupBy, Sym, Table};

        pub(crate) fn pattern_error(
            table: &Table,
            lhs: &[usize],
            rhs: usize,
            rows: &[u32],
        ) -> usize {
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
    }

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
        let index = ItemIndex::build(&t);
        let item_of = |value: &str| {
            let sym = t.pool().lookup(&value.into()).unwrap();
            index.items_of(0).find(|&id| index.item(id).1 == sym).unwrap()
        };
        let (cc44, cc01) = (item_of("44"), item_of("01"));
        let px = partition_of(&index, &[0, 1]);
        let mut scratch = ItemScratch::new(&index);
        let product = px.product(&index, 2, &mut scratch, false);
        let errors = condition_errors(
            &index,
            &px,
            &product.class_errors,
            0,
            &[cc44, cc01],
            &mut scratch.counts,
        );
        // [cc='44'] restricted zip → street: 5 matching rows, exact.
        // cc='01': EH8 splits {Other1, Other2} (1 removal) and 10001
        // splits {5th, 6th×2} (1 removal).
        assert_eq!(errors, vec![0, 2]);
        assert_eq!(index.rows(cc44).len(), 5);
        for (item, err) in [(cc44, 0), (cc01, 2)] {
            assert_eq!(oracle::pattern_error(&t, &[0, 1], 2, index.rows(item)), err);
        }
        assert!(scratch.counts.iter().all(|&c| c == 0), "the buckets are left zeroed");
    }

    #[test]
    fn class_error_sums_agree_with_the_replaced_row_probe() {
        for seed in 0..400u64 {
            let t = random_table(seed);
            let index = ItemIndex::build(&t);
            let mut scratch = ItemScratch::new(&index);
            let arity = t.schema().arity();
            for x in lhs_sets(arity) {
                let px = partition_of(&index, &x);
                for a in (0..arity).filter(|a| !x.contains(a)) {
                    let product = px.product(&index, a, &mut scratch, false);
                    for &attr in &x {
                        let items: Vec<ItemId> = index.items_of(attr).collect();
                        let errors = condition_errors(
                            &index,
                            &px,
                            &product.class_errors,
                            attr,
                            &items,
                            &mut scratch.counts,
                        );
                        let want: Vec<u32> = items
                            .iter()
                            .map(|&item| oracle::pattern_error(&t, &x, a, index.rows(item)) as u32)
                            .collect();
                        assert_eq!(errors, want, "seed {seed}: {x:?} → {a} under attribute {attr}");
                    }
                }
            }
            assert!(scratch.counts.iter().all(|&c| c == 0), "seed {seed}: buckets left dirty");
        }
    }

    #[test]
    fn probes_read_one_class_per_probed_attribute() {
        // With `top_values` covering every value and `min_support` 1,
        // a failing candidate `X → A` probes every attribute of `X`,
        // each reading one representative per stripped class of `π_X`:
        // |X| · |π_X| reads, where regrouping the conditioned rows read
        // |X| · n.
        let t = table();
        let index = ItemIndex::build(&t);
        let classes = |x: &[usize]| partition_of(&index, x).len();
        for max_lhs in [1, 2] {
            let (cfds, stats) = ctane(&t, max_lhs, 1, 8);
            let plain: Vec<(Vec<usize>, usize)> =
                cfds.iter().filter(|c| c.is_plain_fd()).map(|c| (c.lhs.clone(), c.rhs)).collect();
            // Arity 3: level 2 checks `X → A` unless a level-1 plain
            // rule `{b} → A`, `b ∈ X`, pruned it.
            let mut failing: Vec<(Vec<usize>, usize)> = Vec::new();
            for x in lhs_sets(3).into_iter().filter(|x| x.len() <= max_lhs) {
                for a in (0..3).filter(|a| !x.contains(a)) {
                    let pruned = plain.iter().any(|(l, r)| {
                        *r == a && l.len() < x.len() && l.iter().all(|b| x.contains(b))
                    });
                    let holds = plain.contains(&(x.clone(), a));
                    if !pruned && !holds {
                        failing.push((x.clone(), a));
                    }
                }
            }
            assert!(!failing.is_empty());
            assert_eq!(stats.candidates_checked - plain.len(), failing.len(), "max_lhs {max_lhs}");
            let want: usize = failing.iter().map(|(x, _)| x.len() * classes(x)).sum();
            assert_eq!(stats.support_rows_touched, want, "max_lhs {max_lhs}");
        }
    }
}
