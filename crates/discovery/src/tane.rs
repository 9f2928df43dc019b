//! Level-wise dependency discovery (TANE, extended).
//!
//! [`mine_lattice`] is the engine room of the discovery subsystem: a
//! bottom-up walk of the LHS-set lattice keeping stripped partitions,
//! extended beyond the classical algorithm in two ways:
//!
//! * **approximate rules** — each candidate `X → A` gets a confidence
//!   `1 − g3/n` from the stripped-partition error, summed over the
//!   per-class errors of the product `π_X · π_A`
//!   (`Partition::product`); with `min_confidence < 1` the miner
//!   recovers dependencies from *dirty* data, not just clean samples;
//! * **conditional rules** — when the plain FD misses the confidence
//!   bar, single-constant patterns over the most frequent values are
//!   probed (CTANE's pattern search, `ctane::condition_errors`: a
//!   pattern's error is the sum of its classes' errors), yielding CFDs
//!   like `([cc='44', zip] → [street])`.
//!
//! Candidate checks at each level are independent, so the engine layer
//! shards them across scoped threads ([`revival_relation::map_chunks`])
//! and merges in candidate order — byte-identical output at any shard
//! count. Partitions are lists of the item index's live slots; no group
//! key is hashed anywhere in the lattice, and the work per candidate is
//! linear in the classes of `π_X`. Classical TANE —
//! exact, minimal FDs only — is the walk at `min_confidence` 1 with
//! `top_values` 0, keeping the plain rules.

use crate::engine::{DiscoverOptions, DiscoveryStats, MinedCfd};
use revival_constraints::pattern::{PatternRow, PatternValue};
use revival_constraints::Cfd;
use revival_relation::partition::{ItemId, ItemIndex, ItemScratch, Partition, Product};
use revival_relation::{map_chunks, Table};
use std::collections::HashMap;

/// `f` over every item on up to `jobs` scoped workers, outputs in item
/// order: [`map_chunks`], flattened in chunk order, each chunk with its
/// own `scratch()`. One chunk runs inline, so the parallel engine at one
/// shard *is* the sequential engine.
pub(crate) fn map_items<T: Sync, S, R: Send>(
    items: &[T],
    jobs: usize,
    scratch: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, &T) -> R + Sync,
) -> Vec<R> {
    let chunks = map_chunks(items, jobs, |chunk| {
        let mut scratch = scratch();
        chunk.iter().map(|item| f(&mut scratch, item)).collect::<Vec<R>>()
    });
    chunks.into_iter().flat_map(|(out, _)| out).collect()
}

/// One candidate's verdict, produced by an independent (shardable)
/// check.
struct CandidateOutcome {
    rules: Vec<MinedCfd>,
    /// Stop exploring supersets of this LHS for this RHS (a plain rule
    /// was emitted — TANE's minimality pruning, extended to approximate
    /// rules).
    prune: bool,
    /// The refined partition `π_{X∪{A}}` the check computed, handed
    /// back (when `A > max(X)`, i.e. `X∪{A}` in prefix form) so the
    /// next-level build reuses it instead of refining again — the
    /// partition cache the pre-engine sequential code kept.
    refined: Option<Partition>,
    /// Class representatives the conditional probes read: one per
    /// stripped class of `π_X` per probed attribute.
    support_rows_touched: usize,
}

/// Check one candidate `X → A`: plain (possibly approximate) FD first,
/// then single-constant conditional patterns when the plain form fails.
/// `keep_refined` asks for `π_{X∪{A}}` back when it can seed the next
/// level (false on the last level); the product builds it only then,
/// and otherwise yields the class errors alone.
#[allow(clippy::too_many_arguments)]
fn check_candidate(
    index: &ItemIndex<'_>,
    opts: &DiscoverOptions,
    relation: &str,
    x: &[usize],
    px: &Partition,
    top: &[Vec<ItemId>],
    rhs: usize,
    keep_refined: bool,
    scratch: &mut ItemScratch,
) -> CandidateOutcome {
    let table = index.table();
    let n = table.len();
    let keep = keep_refined && rhs > *x.last().expect("non-empty LHS");
    let Product { refined, class_errors } = px.product(index, rhs, scratch, keep);
    let g3: usize = class_errors.iter().map(|&err| err as usize).sum();
    let confidence = if n == 0 { 1.0 } else { 1.0 - g3 as f64 / n as f64 };
    if (g3 == 0 || confidence >= opts.min_confidence) && n >= opts.min_support {
        let cfd = Cfd {
            relation: relation.to_string(),
            lhs: x.to_vec(),
            rhs,
            tableau: vec![PatternRow::all_wildcards(x.len())],
        };
        return CandidateOutcome {
            rules: vec![MinedCfd { cfd, support: n, confidence }],
            prune: true,
            refined,
            support_rows_touched: 0,
        };
    }
    let mut rules = Vec::new();
    let mut support_rows_touched = 0;
    // `top` is empty for every attribute when `top_values` is 0.
    for (pos, &attr) in x.iter().enumerate() {
        // An item's row list is the pattern's support, known before
        // anything is read.
        let probed: Vec<ItemId> = top[attr]
            .iter()
            .copied()
            .filter(|&item| index.rows(item).len() >= opts.min_support.max(1))
            .collect();
        if probed.is_empty() {
            continue;
        }
        support_rows_touched += px.len();
        let errors = crate::ctane::condition_errors(
            index,
            px,
            &class_errors,
            attr,
            &probed,
            &mut scratch.counts,
        );
        for (&item, err) in probed.iter().zip(errors) {
            let support = index.rows(item).len();
            let confidence = 1.0 - err as f64 / support as f64;
            if err == 0 || confidence >= opts.min_confidence {
                let mut lhs_pats = vec![PatternValue::Wildcard; x.len()];
                let value = table.pool().value(index.item(item).1);
                lhs_pats[pos] = PatternValue::Const(value.clone());
                let cfd = Cfd {
                    relation: relation.to_string(),
                    lhs: x.to_vec(),
                    rhs,
                    tableau: vec![PatternRow::new(lhs_pats, PatternValue::Wildcard)],
                };
                rules.push(MinedCfd { cfd, support, confidence });
            }
        }
    }
    CandidateOutcome { rules, prune: false, refined, support_rows_touched }
}

/// Is some emitted LHS for `rhs` a subset of `x`? (Minimality pruning.)
fn pruned(minimal: &HashMap<usize, Vec<Vec<usize>>>, x: &[usize], rhs: usize) -> bool {
    minimal.get(&rhs).is_some_and(|ls| ls.iter().any(|l| l.iter().all(|b| x.contains(b))))
}

/// The most frequent items of one attribute (ties broken by value),
/// capped at `k` — frequencies are the index's row-list lengths; the
/// values the cap drops are counted, not silently forgotten.
fn top_items(
    index: &ItemIndex<'_>,
    attr: usize,
    k: usize,
    stats: &mut DiscoveryStats,
) -> Vec<ItemId> {
    let pool = index.table().pool();
    let value = |id: ItemId| pool.value(index.item(id).1);
    let mut items: Vec<ItemId> = index.items_of(attr).collect();
    items.sort_by(|&a, &b| {
        index.rows(b).len().cmp(&index.rows(a).len()).then_with(|| value(a).cmp(value(b)))
    });
    if items.len() > k {
        stats.candidates_pruned += items.len() - k;
        items.truncate(k);
    }
    items
}

/// The level-wise miner behind every discovery engine: walk LHS sets of
/// size `1..=max_lhs`, emitting plain (possibly approximate) FDs and —
/// where those fail — single-constant conditional CFDs, with TANE
/// minimality pruning across levels. `jobs > 1` shards each level's
/// candidate checks and partition builds; outputs merge in candidate
/// order, so the mined list is byte-identical at any shard count.
pub fn mine_lattice(
    table: &Table,
    opts: &DiscoverOptions,
    jobs: usize,
) -> (Vec<MinedCfd>, DiscoveryStats) {
    mine_lattice_inner(&ItemIndex::build(table), opts, jobs, None)
}

/// [`mine_lattice`] over an index the caller already built (the
/// constant miner reads the same one), with optional per-lattice-level
/// attribution into `profile`: one constraint row per level
/// (`<relation> lvl<N>`) carrying the level's wall time, candidates
/// checked/pruned, g3 evaluations (one per candidate check), the class
/// representatives its conditional probes read, and the µs spent
/// building its partitions. The mined output is byte-identical either way.
pub(crate) fn mine_lattice_inner(
    index: &ItemIndex<'_>,
    opts: &DiscoverOptions,
    jobs: usize,
    mut profile: Option<&mut revival_obs::JobProfile>,
) -> (Vec<MinedCfd>, DiscoveryStats) {
    let table = index.table();
    let arity = table.schema().arity();
    let relation = table.schema().name().to_string();
    let mut stats = DiscoveryStats::default();
    let mut rules: Vec<MinedCfd> = Vec::new();
    if arity < 2 || opts.max_lhs == 0 {
        return (rules, stats);
    }
    let level_name = |size: usize| format!("{relation} lvl{size}");

    let singles_start = std::time::Instant::now();
    let mut level: Vec<(Vec<usize>, Partition)> =
        (0..arity).map(|a| (vec![a], index.partition(a).stripped(2))).collect();
    let singles_us = singles_start.elapsed().as_micros() as u64;
    let top: Vec<Vec<ItemId>> = if opts.top_values > 0 {
        (0..arity).map(|a| top_items(index, a, opts.top_values, &mut stats)).collect()
    } else {
        vec![Vec::new(); arity]
    };
    if let Some(p) = profile.as_deref_mut() {
        // The single-attribute partitions and the condition values seed
        // level 1.
        let c = p.entry(&level_name(1), "level");
        c.partition_build_us += singles_us;
        c.wall_us += singles_start.elapsed().as_micros() as u64;
    }

    // Emitted minimal LHSs per RHS attribute (minimality pruning).
    let mut minimal: HashMap<usize, Vec<Vec<usize>>> = HashMap::new();
    let scratch = || ItemScratch::new(index);

    for size in 1..=opts.max_lhs {
        if level.is_empty() {
            break;
        }
        stats.levels = size;
        let level_start = std::time::Instant::now();
        let pruned_before = stats.candidates_pruned;
        let touched_before = stats.support_rows_touched;
        // Candidates surviving minimality pruning, in (set, rhs) order.
        let mut candidates: Vec<(usize, usize)> = Vec::new();
        for (i, (x, _)) in level.iter().enumerate() {
            for a in 0..arity {
                if x.contains(&a) {
                    continue;
                }
                if pruned(&minimal, x, a) {
                    stats.candidates_pruned += 1;
                } else {
                    candidates.push((i, a));
                }
            }
        }
        stats.candidates_checked += candidates.len();
        let keep_refined = size < opts.max_lhs;
        let outcomes: Vec<CandidateOutcome> =
            map_items(&candidates, jobs, scratch, |scratch, &(i, a)| {
                let (x, px) = &level[i];
                check_candidate(index, opts, &relation, x, px, &top, a, keep_refined, scratch)
            });
        // Partitions the checks already refined, keyed by prefix-form
        // set `x ++ [a]` — the next-level build takes them instead of
        // refining the same set again.
        let mut computed: HashMap<Vec<usize>, Partition> = HashMap::new();
        for (&(i, a), outcome) in candidates.iter().zip(outcomes) {
            rules.extend(outcome.rules);
            stats.support_rows_touched += outcome.support_rows_touched;
            if outcome.prune {
                minimal.entry(a).or_default().push(level[i].0.clone());
            }
            if let Some(p) = outcome.refined {
                let mut xa = level[i].0.clone();
                xa.push(a);
                computed.insert(xa, p);
            }
        }

        // Next level: extend each set by a strictly larger attribute
        // (every sorted set is generated exactly once, from its own
        // prefix — whose level index rides along), keeping only sets
        // with a live candidate RHS. The level is in set order, so its
        // extensions are too.
        let mut next_sets: Vec<(Vec<usize>, usize)> = Vec::new();
        for (i, (x, _)) in level.iter().enumerate() {
            let last = *x.last().expect("level sets are non-empty");
            for a in last + 1..arity {
                let mut xa = x.clone();
                xa.push(a);
                let live = (0..arity).any(|r| !xa.contains(&r) && !pruned(&minimal, &xa, r));
                if live {
                    next_sets.push((xa, i));
                }
            }
        }
        if size == opts.max_lhs {
            stats.lattice_truncated = !next_sets.is_empty();
            if let Some(p) = profile.as_deref_mut() {
                let c = p.entry(&level_name(size), "level");
                c.candidates_checked += candidates.len() as u64;
                c.candidates_pruned += (stats.candidates_pruned - pruned_before) as u64;
                c.rows_scanned += (stats.support_rows_touched - touched_before) as u64;
                c.g3_evaluations += candidates.len() as u64;
                c.wall_us += level_start.elapsed().as_micros() as u64;
            }
            break;
        }
        // Partitions for the next level: reuse what the candidate
        // checks refined; multiply the prefix's by the last attribute
        // for sets whose candidate was minimality-pruned. Either path
        // yields the identical partition (a set's partition does not
        // depend on how it was built).
        let build_start = std::time::Instant::now();
        let mut prefetched: Vec<Option<Partition>> =
            next_sets.iter().map(|(xa, _)| computed.remove(xa)).collect();
        let missing: Vec<usize> =
            (0..next_sets.len()).filter(|&i| prefetched[i].is_none()).collect();
        let filled: Vec<Partition> = map_items(&missing, jobs, scratch, |scratch, &i| {
            let (xa, prefix) = &next_sets[i];
            let last = *xa.last().expect("next-level sets are non-empty");
            level[*prefix].1.refine(index, last, scratch)
        });
        for (i, part) in missing.into_iter().zip(filled) {
            prefetched[i] = Some(part);
        }
        let parts: Vec<Partition> =
            prefetched.into_iter().map(|p| p.expect("every next set filled")).collect();
        let build_us = build_start.elapsed().as_micros() as u64;
        level = next_sets.into_iter().map(|(xa, _)| xa).zip(parts).collect();
        if let Some(p) = profile.as_deref_mut() {
            // The builds run inside this level's wall but materialise
            // the next level's partitions — charged there.
            p.entry(&level_name(size + 1), "level").partition_build_us += build_us;
            let c = p.entry(&level_name(size), "level");
            c.candidates_checked += candidates.len() as u64;
            c.candidates_pruned += (stats.candidates_pruned - pruned_before) as u64;
            c.rows_scanned += (stats.support_rows_touched - touched_before) as u64;
            c.g3_evaluations += candidates.len() as u64;
            c.wall_us += level_start.elapsed().as_micros() as u64;
        }
    }
    (rules, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use revival_constraints::Fd;
    use revival_relation::{Schema, Type, Value};

    /// The exact, minimal FDs with `|X| ≤ max_lhs`: the plain rules of
    /// a walk at confidence 1 that probes no conditions.
    fn exact_fds(t: &Table, max_lhs: usize) -> Vec<Fd> {
        let opts = DiscoverOptions {
            min_support: 0,
            max_lhs,
            top_values: 0,
            ..DiscoverOptions::default()
        };
        let (mined, _) = mine_lattice(t, &opts, 1);
        mined
            .into_iter()
            .filter(|m| m.cfd.is_plain_fd())
            .map(|m| Fd::from_ids(m.cfd.relation, m.cfd.lhs, vec![m.cfd.rhs]))
            .collect()
    }

    fn table() -> Table {
        // a is a key; b → c; d independent.
        let s = Schema::builder("r")
            .attr("a", Type::Int)
            .attr("b", Type::Str)
            .attr("c", Type::Str)
            .attr("d", Type::Int)
            .build();
        let mut t = Table::new(s);
        let rows = [
            (1, "x", "p", 10),
            (2, "x", "p", 20),
            (3, "y", "q", 10),
            (4, "y", "q", 30),
            (5, "z", "r", 20),
            (6, "z", "r", 10),
        ];
        for (a, b, c, d) in rows {
            t.push(vec![Value::Int(a), b.into(), c.into(), Value::Int(d)]).unwrap();
        }
        t
    }

    fn has_fd(fds: &[Fd], lhs: &[usize], rhs: usize) -> bool {
        fds.iter().any(|f| f.lhs == lhs && f.rhs == vec![rhs])
    }

    #[test]
    fn finds_planted_fds() {
        let t = table();
        let fds = exact_fds(&t, 4);
        assert!(has_fd(&fds, &[1], 2), "b → c missing: {fds:?}");
        assert!(has_fd(&fds, &[2], 1), "c → b missing (bijective here)");
        // a is a key → a determines everything.
        for rhs in 1..4 {
            assert!(has_fd(&fds, &[0], rhs), "a → {rhs} missing");
        }
    }

    #[test]
    fn no_false_fds() {
        let t = table();
        let fds = exact_fds(&t, 4);
        assert!(!has_fd(&fds, &[3], 1), "d → b does not hold");
        assert!(!has_fd(&fds, &[1], 3), "b → d does not hold");
        // Every reported FD actually holds: no two rows agreeing on X
        // disagree on A.
        let rows: Vec<Vec<Value>> = t.rows().map(|(_, row)| row).collect();
        for f in &fds {
            let on = |row: &[Value], attrs: &[usize]| -> Vec<Value> {
                attrs.iter().map(|&a| row[a].clone()).collect()
            };
            for (i, r) in rows.iter().enumerate() {
                for s in &rows[i + 1..] {
                    let agree = on(r, &f.lhs) == on(s, &f.lhs);
                    assert!(
                        !agree || r[f.rhs[0]] == s[f.rhs[0]],
                        "reported FD {f:?} does not hold"
                    );
                }
            }
        }
    }

    #[test]
    fn minimality() {
        let t = table();
        let fds = exact_fds(&t, 4);
        // b → c is minimal, so [b,d] → c must not be reported.
        assert!(!has_fd(&fds, &[1, 3], 2));
        for (i, f) in fds.iter().enumerate() {
            let rest: Vec<Fd> =
                fds.iter().enumerate().filter(|(j, _)| *j != i).map(|(_, x)| x.clone()).collect();
            // Minimality = no other reported FD has a strictly smaller
            // LHS on the same RHS.
            let redundant = rest.iter().any(|g| {
                g.rhs == f.rhs
                    && g.lhs.iter().all(|a| f.lhs.contains(a))
                    && g.lhs.len() < f.lhs.len()
            });
            assert!(!redundant, "{f:?} has a smaller LHS variant");
        }
    }

    #[test]
    fn max_lhs_bounds_search_and_reports_truncation() {
        let t = table();
        let fds = exact_fds(&t, 1);
        assert!(fds.iter().all(|f| f.lhs.len() <= 1));
        // The walk's stats report the cut (live candidates remained
        // past level 1).
        let opts = DiscoverOptions {
            min_support: 0,
            max_lhs: 1,
            top_values: 0,
            ..DiscoverOptions::default()
        };
        let (_, stats) = mine_lattice(&t, &opts, 1);
        assert!(stats.lattice_truncated, "{stats:?}");
        assert_eq!(stats.levels, 1);
        // With the full lattice allowed, no truncation is reported.
        let opts = DiscoverOptions {
            min_support: 0,
            max_lhs: 4,
            top_values: 0,
            ..DiscoverOptions::default()
        };
        let (_, stats) = mine_lattice(&t, &opts, 1);
        assert!(!stats.lattice_truncated, "{stats:?}");
    }

    #[test]
    fn empty_table_finds_everything_trivially() {
        let s = Schema::builder("r").attr("a", Type::Int).attr("b", Type::Int).build();
        let t = Table::new(s);
        let fds = exact_fds(&t, 4);
        for f in &fds {
            assert_eq!(f.rhs.len(), 1);
        }
    }

    #[test]
    fn approximate_confidence_recovers_noisy_fds() {
        // b → c holds on 11 of 12 rows (one planted error).
        let s = Schema::builder("r").attr("b", Type::Str).attr("c", Type::Str).build();
        let mut t = Table::new(s);
        for i in 0..12 {
            let b = format!("k{}", i % 3);
            let c = if i == 7 { "noise".to_string() } else { format!("v{}", i % 3) };
            t.push(vec![b.into(), c.into()]).unwrap();
        }
        let strict = DiscoverOptions { top_values: 0, ..DiscoverOptions::default() };
        let (exact, _) = mine_lattice(&t, &strict, 1);
        assert!(
            !exact.iter().any(|m| m.cfd.lhs == vec![0] && m.cfd.rhs == 1),
            "b → c does not hold exactly"
        );
        let loose =
            DiscoverOptions { min_confidence: 0.9, top_values: 0, ..DiscoverOptions::default() };
        let (approx, _) = mine_lattice(&t, &loose, 1);
        let rule = approx
            .iter()
            .find(|m| m.cfd.lhs == vec![0] && m.cfd.rhs == 1)
            .expect("approximate b → c recovered");
        assert!(rule.confidence >= 0.9 && rule.confidence < 1.0, "{rule:?}");
        assert_eq!(rule.support, 12);
        // g3 = 1 violator out of 12 rows.
        assert!((rule.confidence - 11.0 / 12.0).abs() < 1e-9);
    }

    #[test]
    fn sharded_lattice_is_byte_identical() {
        let t = table();
        let opts = DiscoverOptions { min_support: 0, ..DiscoverOptions::default() };
        let (seq, seq_stats) = mine_lattice(&t, &opts, 1);
        for jobs in [2, 3, 4, 8] {
            let (par, par_stats) = mine_lattice(&t, &opts, jobs);
            assert_eq!(format!("{seq:?}"), format!("{par:?}"), "jobs={jobs}");
            assert_eq!(seq_stats, par_stats, "jobs={jobs}");
        }
    }
}
