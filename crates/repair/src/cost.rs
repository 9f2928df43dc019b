//! The repair cost model of Cong et al. (VLDB 2007).
//!
//! `cost(t, A, v → w) = weight(t, A) · dist(v, w)` where `dist` is a
//! distance normalised to `[0, 1]`: Damerau-Levenshtein over the longer
//! string for text, relative difference for numbers, 0/1 otherwise.
//! Weights model confidence in the source data — cells known to be
//! reliable get high weight and are expensive to change, steering the
//! repair toward editing suspect cells.
//!
//! The edit distance is the inner loop of class resolution
//! ([`crate::eqclass`]), so it is written to do little per call: the
//! common prefix and suffix are stripped before the DP (dirty values
//! are mostly one or two typos away from their class's truth, so most
//! calls shrink to a handful of cells), ASCII strings run over their
//! bytes with no decoding, and a [`DistanceScratch`] carries the DP
//! rows from call to call so a class's c(c−1)/2 evaluations allocate
//! once.

use revival_relation::{Table, TupleId, Value};
use std::collections::HashMap;

/// Reusable buffers for the edit-distance DP: three rows, plus the
/// decoded characters of non-ASCII operands. Distances do not depend
/// on what a scratch was used for before.
#[derive(Default)]
pub struct DistanceScratch {
    rows: [Vec<usize>; 3],
    chars: [Vec<char>; 2],
}

impl DistanceScratch {
    /// [`string_distance`], reusing this scratch's buffers.
    pub fn string_distance(&mut self, a: &str, b: &str) -> f64 {
        if a == b {
            return 0.0;
        }
        if a.is_ascii() && b.is_ascii() {
            let edits = osa_distance(a.as_bytes(), b.as_bytes(), &mut self.rows);
            return edits as f64 / a.len().max(b.len()) as f64;
        }
        let [ca, cb] = &mut self.chars;
        ca.clear();
        ca.extend(a.chars());
        cb.clear();
        cb.extend(b.chars());
        osa_distance(ca, cb, &mut self.rows) as f64 / ca.len().max(cb.len()) as f64
    }

    /// [`value_distance`], reusing this scratch's buffers.
    pub fn value_distance(&mut self, a: &Value, b: &Value) -> f64 {
        if a == b {
            return 0.0;
        }
        match (a, b) {
            (Value::Str(x), Value::Str(y)) => self.string_distance(x, y),
            (Value::Int(_), Value::Int(_))
            | (Value::Float(_), Value::Float(_))
            | (Value::Int(_), Value::Float(_))
            | (Value::Float(_), Value::Int(_)) => {
                let numeric = "Int and Float read as floats";
                let (x, y) = (a.as_float().expect(numeric), b.as_float().expect(numeric));
                let denom = x.abs().max(y.abs()).max(1.0);
                ((x - y).abs() / denom).min(1.0)
            }
            _ => 1.0,
        }
    }
}

/// Damerau-Levenshtein edits between two symbol strings (optimal string
/// alignment: a transposition of adjacent symbols counts 1). A shared
/// prefix or suffix never takes part in an optimal alignment's edits,
/// so the DP runs over the differing middles only.
fn osa_distance<T: PartialEq>(a: &[T], b: &[T], rows: &mut [Vec<usize>; 3]) -> usize {
    let prefix = a.iter().zip(b).take_while(|(x, y)| x == y).count();
    let (a, b) = (&a[prefix..], &b[prefix..]);
    let suffix = a.iter().rev().zip(b.iter().rev()).take_while(|(x, y)| x == y).count();
    let (a, b) = (&a[..a.len() - suffix], &b[..b.len() - suffix]);
    let (n, m) = (a.len(), b.len());
    if n == 0 || m == 0 {
        return n.max(m);
    }
    let [prev2, prev, cur] = rows;
    prev2.clear();
    prev2.resize(m + 1, 0);
    prev.clear();
    prev.extend(0..=m);
    cur.clear();
    cur.resize(m + 1, 0);
    for i in 1..=n {
        cur[0] = i;
        for j in 1..=m {
            let sub = if a[i - 1] == b[j - 1] { 0 } else { 1 };
            cur[j] = (prev[j] + 1).min(cur[j - 1] + 1).min(prev[j - 1] + sub);
            if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] {
                cur[j] = cur[j].min(prev2[j - 2] + 1);
            }
        }
        std::mem::swap(prev2, prev);
        std::mem::swap(prev, cur);
    }
    prev[m]
}

/// Normalised Damerau-Levenshtein distance between two strings
/// (transpositions count 1), in `[0, 1]`: edits over the longer
/// string's length in characters.
pub fn string_distance(a: &str, b: &str) -> f64 {
    DistanceScratch::default().string_distance(a, b)
}

/// Normalised distance between two values, in `[0, 1]`.
pub fn value_distance(a: &Value, b: &Value) -> f64 {
    DistanceScratch::default().value_distance(a, b)
}

/// Per-cell weights with a uniform default.
#[derive(Clone, Debug)]
pub struct CostModel {
    default_weight: f64,
    attr_weights: Vec<f64>,
    cell_weights: HashMap<(TupleId, usize), f64>,
}

impl CostModel {
    /// Uniform weights (1.0) over a relation of the given arity.
    pub fn uniform(arity: usize) -> Self {
        CostModel {
            default_weight: 1.0,
            attr_weights: vec![1.0; arity],
            cell_weights: HashMap::new(),
        }
    }

    /// Set the weight of a whole attribute.
    pub fn set_attr_weight(&mut self, attr: usize, w: f64) {
        self.attr_weights[attr] = w;
    }

    /// Set the weight of one cell (overrides the attribute weight).
    pub fn set_cell_weight(&mut self, tuple: TupleId, attr: usize, w: f64) {
        self.cell_weights.insert((tuple, attr), w);
    }

    /// The weight of a cell.
    pub fn weight(&self, tuple: TupleId, attr: usize) -> f64 {
        self.cell_weights
            .get(&(tuple, attr))
            .copied()
            .unwrap_or_else(|| self.attr_weights.get(attr).copied().unwrap_or(self.default_weight))
    }

    /// Cost of changing one cell from `from` to `to`.
    pub fn change_cost(&self, tuple: TupleId, attr: usize, from: &Value, to: &Value) -> f64 {
        self.weight(tuple, attr) * value_distance(from, to)
    }

    /// Changed-cell count and total weighted cell distance (the
    /// objective the repair heuristic minimises) between a table and
    /// its repair, over `cells` — the cells the repair wrote, each
    /// listed once. Every other cell is equal in both tables and adds
    /// nothing, so the walk is over the edits, not over both tables.
    /// Costs add up in the order given.
    pub fn repair_cost(
        &self,
        original: &Table,
        repaired: &Table,
        cells: &[(TupleId, usize)],
    ) -> (usize, f64) {
        let (mut changed, mut cost) = (0, 0.0);
        let mut scratch = DistanceScratch::default();
        for &(id, a) in cells {
            if let (Ok(v), Ok(w)) = (original.value_at(id, a), repaired.value_at(id, a)) {
                if v != w {
                    changed += 1;
                    cost += self.weight(id, a) * scratch.value_distance(v, w);
                }
            }
        }
        (changed, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_distance_basics() {
        assert_eq!(string_distance("abc", "abc"), 0.0);
        assert_eq!(string_distance("", "abc"), 1.0);
        assert!((string_distance("abc", "abd") - 1.0 / 3.0).abs() < 1e-9);
        // Transposition costs one edit.
        assert!((string_distance("abcd", "abdc") - 0.25).abs() < 1e-9);
        assert_eq!(string_distance("a", "b"), 1.0);
    }

    #[test]
    fn distance_symmetry_and_range() {
        for (a, b) in [("kitten", "sitting"), ("flaw", "lawn"), ("x", ""), ("abc", "ca")] {
            let d1 = string_distance(a, b);
            let d2 = string_distance(b, a);
            assert!((d1 - d2).abs() < 1e-12, "symmetry for {a},{b}");
            assert!((0.0..=1.0).contains(&d1));
        }
    }

    #[test]
    fn value_distance_numeric() {
        assert_eq!(value_distance(&Value::Int(10), &Value::Int(10)), 0.0);
        assert!((value_distance(&Value::Int(10), &Value::Int(9)) - 0.1).abs() < 1e-9);
        assert_eq!(value_distance(&Value::Int(1), &Value::from("1")), 1.0);
        assert_eq!(value_distance(&Value::Null, &Value::from("x")), 1.0);
    }

    #[test]
    fn weights() {
        let mut m = CostModel::uniform(3);
        m.set_attr_weight(1, 2.0);
        m.set_cell_weight(TupleId(5), 1, 0.5);
        assert_eq!(m.weight(TupleId(0), 0), 1.0);
        assert_eq!(m.weight(TupleId(0), 1), 2.0);
        assert_eq!(m.weight(TupleId(5), 1), 0.5);
    }

    #[test]
    fn repair_cost_counts_changed_cells() {
        use revival_relation::{Schema, Type};
        let s = Schema::builder("r").attr("a", Type::Str).build();
        let mut t1 = Table::new(s.clone());
        let id = t1.push(vec!["abcd".into()]).unwrap();
        let mut t2 = t1.clone();
        t2.set_cell(id, 0, "abce".into()).unwrap();
        let m = CostModel::uniform(1);
        let (changed, cost) = m.repair_cost(&t1, &t2, &[(id, 0)]);
        assert_eq!(changed, 1);
        assert!((cost - 0.25).abs() < 1e-9);
        assert_eq!(m.repair_cost(&t1, &t1, &[(id, 0)]), (0, 0.0));
    }
}
