//! Controlled noise injection with ground truth.
//!
//! The repair experiments of \[6\] inject errors at a controlled rate into
//! clean data, then score a repair against the original. This module
//! reproduces that protocol: [`inject`] dirties a fraction of cells
//! (typos or domain swaps) and returns a [`DirtyDataset`] carrying the
//! clean original, the dirty copy, and the exact set of modified cells.

use rand::prelude::*;
use rand::rngs::StdRng;
use revival_relation::{Table, TupleId, Value};
use std::collections::{BTreeSet, HashMap};

/// How a cell gets corrupted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NoiseKind {
    /// Replace with another value drawn from the same column (an
    /// "active-domain swap": plausible but wrong).
    DomainSwap,
    /// Apply a small string edit (character substitution/insertion) —
    /// a typo.
    Typo,
}

/// Noise configuration.
#[derive(Clone, Debug)]
pub struct NoiseConfig {
    /// Fraction of *cells among the target attributes* to corrupt
    /// (0.0–1.0).
    pub rate: f64,
    /// Attribute positions eligible for corruption.
    pub attrs: Vec<usize>,
    /// Probability that a corruption is a [`NoiseKind::DomainSwap`]
    /// (vs. a typo).
    pub swap_probability: f64,
    /// RNG seed.
    pub seed: u64,
}

impl NoiseConfig {
    /// Corrupt `rate` of the cells in `attrs` with default mix.
    pub fn new(rate: f64, attrs: Vec<usize>, seed: u64) -> Self {
        NoiseConfig { rate, attrs, swap_probability: 0.7, seed }
    }
}

/// A dirty instance with its clean origin and ground-truth edits.
pub struct DirtyDataset {
    /// The corrupted table.
    pub dirty: Table,
    /// The clean original.
    pub clean: Table,
    /// Cells that were modified: `(tuple, attr)`, deduplicated.
    pub modified: BTreeSet<(TupleId, usize)>,
}

impl DirtyDataset {
    /// Number of corrupted cells.
    pub fn error_count(&self) -> usize {
        self.modified.len()
    }

    /// Score a repaired table against the clean original, looking only
    /// at the attributes in `attrs` (the repairable ones).
    ///
    /// * **precision** — of the cells the repair *changed* (vs. dirty),
    ///   how many now equal the clean value;
    /// * **recall** — of the cells that were *corrupted*, how many were
    ///   restored to the clean value.
    ///
    /// This is the scoring used in Cong et al. (VLDB 2007), experiment
    /// E4.
    pub fn score_repair(&self, repaired: &Table, attrs: &[usize]) -> RepairScore {
        let mut changed = 0usize;
        let mut changed_correct = 0usize;
        let mut restored = 0usize;
        for (id, dirty_row) in self.dirty.rows() {
            let Ok(rep_row) = repaired.get(id) else { continue };
            let Ok(clean_row) = self.clean.get(id) else { continue };
            for &a in attrs {
                let was_changed = rep_row[a] != dirty_row[a];
                if was_changed {
                    changed += 1;
                    if rep_row[a] == clean_row[a] {
                        changed_correct += 1;
                    }
                }
                if self.modified.contains(&(id, a)) && rep_row[a] == clean_row[a] {
                    restored += 1;
                }
            }
        }
        let corrupted: usize = self.modified.iter().filter(|(_, a)| attrs.contains(a)).count();
        RepairScore {
            precision: if changed == 0 { 1.0 } else { changed_correct as f64 / changed as f64 },
            recall: if corrupted == 0 { 1.0 } else { restored as f64 / corrupted as f64 },
            changed_cells: changed,
            corrupted_cells: corrupted,
        }
    }
}

/// Precision/recall of a repair against ground truth.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RepairScore {
    pub precision: f64,
    pub recall: f64,
    pub changed_cells: usize,
    pub corrupted_cells: usize,
}

impl RepairScore {
    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        if self.precision + self.recall == 0.0 {
            0.0
        } else {
            2.0 * self.precision * self.recall / (self.precision + self.recall)
        }
    }
}

/// Apply a typo to a string value (deterministic given the rng state).
fn typo(v: &Value, rng: &mut StdRng) -> Value {
    match v.as_str() {
        Some(s) if !s.is_empty() => {
            let chars: Vec<char> = s.chars().collect();
            let pos = rng.gen_range(0..chars.len());
            let replacement = char::from(b'a' + rng.gen_range(0..26u8));
            let mut out: String = chars[..pos].iter().collect();
            match rng.gen_range(0..3) {
                0 => {
                    // substitute
                    out.push(replacement);
                    out.extend(&chars[pos + 1..]);
                }
                1 => {
                    // insert
                    out.push(replacement);
                    out.extend(&chars[pos..]);
                }
                _ => {
                    // delete (keep at least one char)
                    if chars.len() > 1 {
                        out.extend(&chars[pos + 1..]);
                    } else {
                        out.push(replacement);
                    }
                }
            }
            Value::str(&out)
        }
        _ => match v {
            Value::Int(i) => Value::Int(i + 1),
            Value::Float(f) => Value::Float(f + 1.0),
            other => other.clone(),
        },
    }
}

/// Inject noise into `table` per `cfg`. The returned dirty table keeps
/// the same tuple ids as the input.
pub fn inject(table: &Table, cfg: &NoiseConfig) -> DirtyDataset {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let clean = table.clone();
    let mut dirty = table.clone();

    // Column pools for domain swaps.
    let mut pools: HashMap<usize, Vec<Value>> = HashMap::new();
    for &a in &cfg.attrs {
        let mut pool: Vec<Value> = table.rows().map(|(_, r)| r[a].clone()).collect();
        pool.sort();
        pool.dedup();
        pools.insert(a, pool);
    }

    let ids: Vec<TupleId> = table.tuple_ids().collect();
    let total_cells = ids.len() * cfg.attrs.len();
    let n_errors = ((total_cells as f64) * cfg.rate).round() as usize;

    let mut modified = BTreeSet::new();
    let mut guard = 0usize;
    while modified.len() < n_errors && guard < n_errors * 20 + 100 {
        guard += 1;
        let id = ids[rng.gen_range(0..ids.len())];
        let a = cfg.attrs[rng.gen_range(0..cfg.attrs.len())];
        if modified.contains(&(id, a)) {
            continue;
        }
        let current = dirty.get(id).expect("live tuple")[a].clone();
        let new_value = if rng.gen_bool(cfg.swap_probability) {
            let pool = &pools[&a];
            // Draw a different value; fall back to typo for tiny pools.
            let candidates: Vec<&Value> = pool.iter().filter(|v| **v != current).collect();
            match candidates.choose(&mut rng) {
                Some(v) => (*v).clone(),
                None => typo(&current, &mut rng),
            }
        } else {
            typo(&current, &mut rng)
        };
        if new_value == current {
            continue;
        }
        dirty.set_cell(id, a, new_value).expect("cell write");
        modified.insert((id, a));
    }
    DirtyDataset { dirty, clean, modified }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::customer::{attrs, generate, standard_cfds, CustomerConfig};
    use revival_detect::{DetectJob, Detector, NativeEngine};

    fn dataset(rate: f64) -> DirtyDataset {
        let data = generate(&CustomerConfig { rows: 400, ..Default::default() });
        inject(
            &data.table,
            &NoiseConfig::new(rate, vec![attrs::STREET, attrs::CITY, attrs::ZIP], 7),
        )
    }

    #[test]
    fn error_count_tracks_rate() {
        let ds = dataset(0.05);
        let expected = (400.0 * 3.0 * 0.05) as usize;
        assert!(
            (ds.error_count() as i64 - expected as i64).unsigned_abs() as usize <= expected / 5 + 2,
            "got {} errors, expected ≈{expected}",
            ds.error_count()
        );
    }

    #[test]
    fn modified_cells_differ_from_clean() {
        let ds = dataset(0.03);
        for &(id, a) in &ds.modified {
            assert_ne!(ds.dirty.get(id).unwrap()[a], ds.clean.get(id).unwrap()[a]);
        }
        // And unmodified cells agree.
        assert_eq!(ds.dirty.diff_cells(&ds.clean), ds.error_count());
    }

    #[test]
    fn noise_creates_detectable_violations() {
        let data = generate(&CustomerConfig { rows: 600, ..Default::default() });
        let cfds = standard_cfds(&data.schema);
        let ds = inject(&data.table, &NoiseConfig::new(0.05, vec![attrs::STREET, attrs::CITY], 11));
        let n = NativeEngine.run(&DetectJob::on_table(&ds.dirty, &cfds)).unwrap().len();
        assert!(n > 0, "5% noise should trip the suite");
    }

    #[test]
    fn perfect_repair_scores_perfectly() {
        let ds = dataset(0.05);
        let score = ds.score_repair(&ds.clean, &[attrs::STREET, attrs::CITY, attrs::ZIP]);
        assert_eq!(score.precision, 1.0);
        assert_eq!(score.recall, 1.0);
        assert_eq!(score.f1(), 1.0);
    }

    #[test]
    fn null_repair_scores_zero_recall() {
        let ds = dataset(0.05);
        let score = ds.score_repair(&ds.dirty, &[attrs::STREET, attrs::CITY, attrs::ZIP]);
        assert_eq!(score.recall, 0.0);
        assert_eq!(score.changed_cells, 0);
        // Precision of an empty change set is defined as 1.
        assert_eq!(score.precision, 1.0);
    }

    #[test]
    fn typo_changes_strings() {
        let mut rng = StdRng::seed_from_u64(1);
        for s in ["hello", "x", "longer street name"] {
            let v = Value::from(s);
            let t = typo(&v, &mut rng);
            assert_ne!(t, v, "typo must alter `{s}`");
        }
        assert_eq!(typo(&Value::Int(3), &mut rng), Value::Int(4));
    }

    #[test]
    fn deterministic_by_seed() {
        let a = dataset(0.04);
        let b = dataset(0.04);
        assert_eq!(a.modified, b.modified);
        assert_eq!(a.dirty.diff_cells(&b.dirty), 0);
    }
}
