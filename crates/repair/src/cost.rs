//! The repair cost model of Cong et al. (VLDB 2007).
//!
//! `cost(t, A, v → w) = weight(t, A) · dist(v, w)` where `dist` is a
//! distance normalised to `[0, 1]`: Damerau-Levenshtein over the longer
//! string for text, relative difference for numbers, 0/1 otherwise.
//! Weights model confidence in the source data — cells known to be
//! reliable get high weight and are expensive to change, steering the
//! repair toward editing suspect cells.
//!
//! A weight is a finite, non-negative number; [`CostModel`]'s setters
//! panic on anything else. Class resolution relies on it: a sum of
//! non-negative terms is at least each of its terms, which is what
//! lets it price a value out from one term of its total
//! ([`crate::eqclass`]).
//!
//! ## The edit-distance kernel
//!
//! The edit distance is the inner loop of class resolution
//! ([`crate::eqclass`]). The common prefix and suffix are stripped
//! first: a dirty value one or two typos from its class's truth shrinks
//! to a handful of symbols. That does nothing for the other kind of
//! dirt, a *domain swap* — a cell holding another row's valid value, so
//! a class pits `buffalo general hospital 67` against `worcester general
//! hospital 7`: no shared first or last symbol, and a cell-by-cell DP
//! would fill all 27 × 28 cells to learn that the names are unrelated.
//!
//! So the middles go through the bit-vector recurrence of Hyyrö ("A
//! bit-vector algorithm for computing Levenshtein and Damerau edit
//! distances", 2003). The shorter middle is the *pattern*; one column of
//! the DP matrix is held as the vertical differences between its cells
//! (+1 / −1 bit-vectors, 64 pattern positions per word), and a text
//! symbol advances the whole column with a dozen word operations per
//! word instead of one `min` per cell: ⌈m/64⌉ words per text symbol, so
//! a 26-symbol name is the one-word instance of the loop and a
//! 300-symbol one takes five words, with the horizontal differences and
//! the transposition term carried from each word into the next. It
//! computes the optimal-string-alignment integer exactly (the row DP it
//! replaced survives under `#[cfg(test)]` as its oracle).
//!
//! The kernel is generic over the symbol; what differs is how a text
//! symbol finds its *match mask* (the pattern positions holding it):
//! ASCII operands run over their bytes against a 256-row table,
//! anything else over `char`s against a sorted table of the pattern's
//! distinct symbols. A [`DistanceScratch`] carries the mask table and
//! the column words from call to call; a call clears the mask words it
//! set, one per pattern symbol, never the table.

use revival_relation::{Table, TupleId, Value};
use std::cell::RefCell;
use std::collections::HashMap;

/// One 64-position word of the current DP column, as Hyyrö's vectors:
/// vertical +1 / −1 differences, the diagonal-zero vector and the match
/// mask of the text symbol that produced it (the transposition term of
/// the next symbol reads the last two).
#[derive(Clone, Copy)]
struct Block {
    vp: u64,
    vn: u64,
    d0: u64,
    pm: u64,
}

/// Reusable state of the edit-distance kernel: the match-mask table,
/// the column words, and the decoded characters of non-ASCII operands.
/// Distances do not depend on what a scratch was used for before.
#[derive(Default)]
pub struct DistanceScratch {
    kernel: Kernel,
    chars: [Vec<char>; 2],
}

/// What [`Kernel::osa_distance`] keeps between calls.
#[derive(Default)]
struct Kernel {
    /// Match masks, one row of `words` words per symbol row
    /// ([`Symbol::mask_row`]); all zero between calls.
    masks: Vec<u64>,
    /// The pattern's distinct symbols, sorted (`char` operands only).
    alphabet: Vec<char>,
    blocks: Vec<Block>,
}

/// A symbol the kernel can look a match mask up for.
trait Symbol: Copy + PartialEq {
    /// Prepare `alphabet` for `pattern`; the number of mask rows the
    /// pattern's symbols and any text symbol can index.
    fn mask_rows(pattern: &[Self], alphabet: &mut Vec<char>) -> usize;
    /// This symbol's mask row — an all-zero one if the pattern does not
    /// hold the symbol.
    fn mask_row(self, alphabet: &[char]) -> usize;
}

impl Symbol for u8 {
    fn mask_rows(_: &[u8], _: &mut Vec<char>) -> usize {
        256
    }
    #[inline]
    fn mask_row(self, _: &[char]) -> usize {
        self as usize
    }
}

/// Row 0 stays empty for text symbols the pattern lacks.
impl Symbol for char {
    fn mask_rows(pattern: &[char], alphabet: &mut Vec<char>) -> usize {
        alphabet.clear();
        alphabet.extend_from_slice(pattern);
        alphabet.sort_unstable();
        alphabet.dedup();
        alphabet.len() + 1
    }
    #[inline]
    fn mask_row(self, alphabet: &[char]) -> usize {
        alphabet.binary_search(&self).map_or(0, |i| i + 1)
    }
}

impl DistanceScratch {
    /// [`string_distance`], reusing this scratch's buffers.
    pub fn string_distance(&mut self, a: &str, b: &str) -> f64 {
        if a == b {
            return 0.0;
        }
        if a.is_ascii() && b.is_ascii() {
            let edits = self.kernel.osa_distance(a.as_bytes(), b.as_bytes());
            return edits as f64 / a.len().max(b.len()) as f64;
        }
        let [ca, cb] = &mut self.chars;
        ca.clear();
        ca.extend(a.chars());
        cb.clear();
        cb.extend(b.chars());
        self.kernel.osa_distance(ca, cb) as f64 / ca.len().max(cb.len()) as f64
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

impl Kernel {
    /// Damerau-Levenshtein edits between two symbol strings (optimal
    /// string alignment: a transposition of adjacent symbols counts 1).
    /// A shared prefix or suffix never takes part in an optimal
    /// alignment's edits, so only the differing middles are aligned —
    /// by Hyyrö's bit-vector recurrence in its block form (module doc),
    /// the shorter middle as the pattern.
    fn osa_distance<T: Symbol>(&mut self, a: &[T], b: &[T]) -> usize {
        let prefix = a.iter().zip(b).take_while(|(x, y)| x == y).count();
        let (a, b) = (&a[prefix..], &b[prefix..]);
        let suffix = a.iter().rev().zip(b.iter().rev()).take_while(|(x, y)| x == y).count();
        let (a, b) = (&a[..a.len() - suffix], &b[..b.len() - suffix]);
        let (pattern, text) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        let m = pattern.len();
        if m == 0 {
            return text.len();
        }
        let words = m.div_ceil(64);
        let Kernel { masks, alphabet, blocks } = self;
        let table = T::mask_rows(pattern, alphabet) * words;
        if masks.len() < table {
            masks.resize(table, 0);
        }
        for (j, p) in pattern.iter().enumerate() {
            masks[p.mask_row(alphabet) * words + j / 64] |= 1 << (j % 64);
        }
        blocks.clear();
        blocks.resize(words, Block { vp: !0, vn: 0, d0: 0, pm: 0 });
        // The column's last cell, D[m][j], is tracked from the
        // horizontal differences at pattern position m.
        let last = 1u64 << ((m - 1) % 64);
        let mut distance = m;
        for c in text {
            let row = c.mask_row(alphabet) * words;
            // Row 0 of the matrix is 0, 1, 2, …: +1 enters the first word.
            let (mut hp_in, mut hn_in) = (1u64, 0u64);
            // The word below's previous D0 and current match mask: the
            // transposition term's carry across the word boundary.
            let (mut d0_below, mut pm_below) = (0u64, 0u64);
            for (w, (block, &pm)) in blocks.iter_mut().zip(&masks[row..row + words]).enumerate() {
                let Block { vp, vn, d0: d0_before, pm: pm_before } = *block;
                let tr = (((!d0_before & pm) << 1) | ((!d0_below & pm_below) >> 63)) & pm_before;
                let x = pm | hn_in;
                let d0 = ((x & vp).wrapping_add(vp) ^ vp) | x | vn | tr;
                let hp = vn | !(d0 | vp);
                let hn = d0 & vp;
                if w == words - 1 {
                    distance += usize::from(hp & last != 0);
                    distance -= usize::from(hn & last != 0);
                }
                let (hp_shifted, hn_shifted) = ((hp << 1) | hp_in, (hn << 1) | hn_in);
                (hp_in, hn_in) = (hp >> 63, hn >> 63);
                (d0_below, pm_below) = (d0_before, pm);
                *block = Block { vp: hn_shifted | !(d0 | hp_shifted), vn: hp_shifted & d0, d0, pm };
            }
        }
        for (j, p) in pattern.iter().enumerate() {
            masks[p.mask_row(alphabet) * words + j / 64] = 0;
        }
        distance
    }
}

thread_local! {
    /// The scratch behind the free [`string_distance`] /
    /// [`value_distance`], so a one-off call allocates and clears no
    /// mask table either.
    static SCRATCH: RefCell<DistanceScratch> = RefCell::default();
}

/// Normalised Damerau-Levenshtein distance between two strings
/// (transpositions count 1), in `[0, 1]`: edits over the longer
/// string's length in characters.
pub fn string_distance(a: &str, b: &str) -> f64 {
    SCRATCH.with_borrow_mut(|scratch| scratch.string_distance(a, b))
}

/// Normalised distance between two values, in `[0, 1]`.
pub fn value_distance(a: &Value, b: &Value) -> f64 {
    SCRATCH.with_borrow_mut(|scratch| scratch.value_distance(a, b))
}

/// The weight domain: finite and non-negative (`-0.0` included).
fn valid_weight(w: f64) -> bool {
    w.is_finite() && w >= 0.0
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
    ///
    /// # Panics
    /// If `w` is negative, NaN or infinite.
    pub fn set_attr_weight(&mut self, attr: usize, w: f64) {
        assert!(valid_weight(w), "weight of attribute {attr} must be finite and >= 0, got {w}");
        self.attr_weights[attr] = w;
    }

    /// Set the weight of one cell (overrides the attribute weight).
    ///
    /// # Panics
    /// If `w` is negative, NaN or infinite.
    pub fn set_cell_weight(&mut self, tuple: TupleId, attr: usize, w: f64) {
        assert!(
            valid_weight(w),
            "weight of cell (t{}, attribute {attr}) must be finite and >= 0, got {w}",
            tuple.0
        );
        self.cell_weights.insert((tuple, attr), w);
    }

    /// The weight of a cell.
    pub fn weight(&self, tuple: TupleId, attr: usize) -> f64 {
        self.cell_weights
            .get(&(tuple, attr))
            .copied()
            .unwrap_or_else(|| self.attr_weights.get(attr).copied().unwrap_or(self.default_weight))
    }

    /// Cost of changing one cell from `from` to `to`, measured with the
    /// caller's scratch (one per run, not one per cell).
    pub fn change_cost(
        &self,
        tuple: TupleId,
        attr: usize,
        from: &Value,
        to: &Value,
        scratch: &mut DistanceScratch,
    ) -> f64 {
        self.weight(tuple, attr) * scratch.value_distance(from, to)
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
                    cost += self.change_cost(id, a, v, w, &mut scratch);
                }
            }
        }
        (changed, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cell-by-cell optimal-string-alignment DP the kernel replaced,
    /// over the whole operands: its oracle.
    fn row_dp<T: PartialEq>(a: &[T], b: &[T]) -> usize {
        let (n, m) = (a.len(), b.len());
        let mut prev2 = vec![0; m + 1];
        let mut prev: Vec<usize> = (0..=m).collect();
        let mut cur = vec![0; m + 1];
        for i in 1..=n {
            cur[0] = i;
            for j in 1..=m {
                let sub = usize::from(a[i - 1] != b[j - 1]);
                cur[j] = (prev[j] + 1).min(cur[j - 1] + 1).min(prev[j - 1] + sub);
                if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] {
                    cur[j] = cur[j].min(prev2[j - 2] + 1);
                }
            }
            std::mem::swap(&mut prev2, &mut prev);
            std::mem::swap(&mut prev, &mut cur);
        }
        prev[m]
    }

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

    /// 100 000 seeded pairs through one kernel against the row DP:
    /// lengths 0–200 (one to four words), alphabets of 2–5 symbols (so
    /// matches, transpositions and shared affixes are all common),
    /// every fourth pair a few edits of one string, bytes and `char`s
    /// interleaved — whatever the previous pair left behind.
    #[test]
    fn kernel_equals_row_dp_on_100_000_seeded_pairs() {
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut next = move |m: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % m as u64) as usize
        };
        let wide = ['a', 'b', 'é', 'ß', '日'];
        let mut kernel = Kernel::default();
        for round in 0..100_000 {
            let sigma = 2 + next(4);
            let len = if next(8) == 0 { next(201) } else { next(40) };
            let a: Vec<usize> = (0..len).map(|_| next(sigma)).collect();
            let b: Vec<usize> = if round % 4 == 0 {
                let mut b = a.clone();
                for _ in 0..next(4) {
                    match (next(4), b.len()) {
                        (0, _) | (_, 0) => b.insert(next(b.len() + 1), next(sigma)),
                        (1, n) => drop(b.remove(next(n))),
                        (2, n) => b[next(n)] = next(sigma),
                        (_, n) => b.swap(next(n), (next(n) + 1).min(n - 1)),
                    }
                }
                b
            } else {
                let len = if next(8) == 0 { next(201) } else { next(40) };
                (0..len).map(|_| next(sigma)).collect()
            };
            let want = row_dp(&a, &b);
            let got = if round % 3 == 0 {
                let (a, b): (Vec<char>, Vec<char>) =
                    (a.iter().map(|&i| wide[i]).collect(), b.iter().map(|&i| wide[i]).collect());
                (kernel.osa_distance(&a, &b), kernel.osa_distance(&b, &a))
            } else {
                let (a, b): (Vec<u8>, Vec<u8>) = (
                    a.iter().map(|&i| b'a' + i as u8).collect(),
                    b.iter().map(|&i| b'a' + i as u8).collect(),
                );
                (kernel.osa_distance(&a, &b), kernel.osa_distance(&b, &a))
            };
            assert_eq!(got, (want, want), "round {round}: {a:?} vs {b:?}");
            if round % 256 == 0 {
                assert!(kernel.masks.iter().all(|&w| w == 0), "round {round}: masks left set");
            }
        }
        assert!(kernel.masks.len() >= 256 * 4 && kernel.masks.iter().all(|&w| w == 0));
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
    #[should_panic(expected = "weight of attribute 1 must be finite and >= 0, got -0.5")]
    fn negative_attribute_weight_panics() {
        CostModel::uniform(3).set_attr_weight(1, -0.5);
    }

    #[test]
    #[should_panic(expected = "weight of attribute 0 must be finite and >= 0, got NaN")]
    fn nan_attribute_weight_panics() {
        CostModel::uniform(3).set_attr_weight(0, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "weight of cell (t5, attribute 2) must be finite and >= 0, got inf")]
    fn infinite_cell_weight_panics() {
        CostModel::uniform(3).set_cell_weight(TupleId(5), 2, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "weight of cell (t7, attribute 0) must be finite and >= 0, got -1")]
    fn negative_cell_weight_panics() {
        CostModel::uniform(3).set_cell_weight(TupleId(7), 0, -1.0);
    }

    #[test]
    #[should_panic(expected = "weight of cell (t0, attribute 1) must be finite and >= 0, got NaN")]
    fn nan_cell_weight_panics() {
        CostModel::uniform(3).set_cell_weight(TupleId(0), 1, f64::NAN);
    }

    /// The domain's edges are weights: zero of either sign, the largest
    /// finite value, the smallest subnormal.
    #[test]
    fn weights_at_the_domain_edges_are_taken() {
        let mut m = CostModel::uniform(2);
        for w in [0.0, -0.0, f64::MAX, f64::from_bits(1)] {
            m.set_attr_weight(0, w);
            m.set_cell_weight(TupleId(3), 1, w);
            assert_eq!(m.weight(TupleId(0), 0).to_bits(), w.to_bits());
            assert_eq!(m.weight(TupleId(3), 1).to_bits(), w.to_bits());
        }
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
