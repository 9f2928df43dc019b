//! Conflict graphs and subset-repair enumeration.

use revival_constraints::Cfd;
use revival_detect::{DetectJob, Detector, NativeEngine, Violation};
use revival_relation::{Table, TupleId};
use std::collections::{BTreeSet, HashMap, HashSet};

/// The conflict structure of an instance w.r.t. a CFD suite.
///
/// * an **edge** `{t, t'}` means the two tuples cannot coexist (they
///   jointly violate a variable tableau row);
/// * a **doomed** tuple violates a constant row by itself and belongs
///   to no repair.
#[derive(Clone, Debug, Default)]
pub struct ConflictGraph {
    /// Adjacency over conflicting tuples only.
    pub edges: HashMap<TupleId, BTreeSet<TupleId>>,
    /// Tuples excluded from every repair.
    pub doomed: BTreeSet<TupleId>,
}

impl ConflictGraph {
    /// Build from an instance and suite.
    ///
    /// # Panics
    /// If the suite is malformed or constrains another relation.
    pub fn build(table: &Table, cfds: &[Cfd]) -> ConflictGraph {
        let report = NativeEngine
            .run(&DetectJob::on_table(table, cfds))
            .expect("well-formed suite over this table");
        let mut g = ConflictGraph::default();
        for v in &report.violations {
            match v {
                Violation::CfdConstant { tuple, .. } => {
                    g.doomed.insert(*tuple);
                }
                Violation::CfdVariable { cfd, tuples, .. } => {
                    let rhs = cfds[*cfd].rhs;
                    // Edges between members with *different* RHS values.
                    for (i, &a) in tuples.iter().enumerate() {
                        for &b in &tuples[i + 1..] {
                            let (Ok(ra), Ok(rb)) = (table.get(a), table.get(b)) else {
                                continue;
                            };
                            if ra[rhs] != rb[rhs] {
                                g.edges.entry(a).or_default().insert(b);
                                g.edges.entry(b).or_default().insert(a);
                            }
                        }
                    }
                }
                Violation::CindMissingWitness { .. } => {}
            }
        }
        g
    }

    /// Tuples involved in at least one conflict (edge or doom).
    pub fn conflicting_tuples(&self) -> BTreeSet<TupleId> {
        let mut s: BTreeSet<TupleId> = self.edges.keys().copied().collect();
        s.extend(self.doomed.iter().copied());
        s
    }

    /// Is the instance consistent (no conflicts at all)?
    pub fn is_consistent(&self) -> bool {
        self.edges.is_empty() && self.doomed.is_empty()
    }

    /// Is a tuple conflict-free (in every repair)?
    pub fn is_clean(&self, t: TupleId) -> bool {
        !self.doomed.contains(&t) && !self.edges.contains_key(&t)
    }

    /// Neighbors of a tuple in the conflict graph.
    pub fn neighbors(&self, t: TupleId) -> impl Iterator<Item = TupleId> + '_ {
        self.edges.get(&t).into_iter().flatten().copied()
    }
}

/// Enumerate all subset repairs (maximal consistent subsets) as sets of
/// *kept conflicting* tuples; conflict-free tuples are implicitly in
/// every repair. Stops after `cap` repairs (returns what it found).
///
/// Exponential in the number of conflicting tuples — this is the
/// semantics oracle, not the production path (that's the rewriting in
/// [`crate::certain`]).
pub fn enumerate_repairs(graph: &ConflictGraph, cap: usize) -> Vec<BTreeSet<TupleId>> {
    // Maximal independent sets over the conflict nodes minus doomed.
    let nodes: Vec<TupleId> =
        graph.edges.keys().copied().filter(|t| !graph.doomed.contains(t)).collect();
    let index: HashMap<TupleId, usize> = nodes.iter().enumerate().map(|(i, &t)| (t, i)).collect();
    let n = nodes.len();
    let mut adj: Vec<HashSet<usize>> = vec![HashSet::new(); n];
    for (&t, ns) in &graph.edges {
        let Some(&i) = index.get(&t) else { continue };
        for nb in ns {
            if let Some(&j) = index.get(nb) {
                adj[i].insert(j);
            }
        }
    }
    // Bron-Kerbosch with pivoting on the *complement* clique problem,
    // expressed directly as maximal-independent-set enumeration.
    let mut out: Vec<BTreeSet<TupleId>> = Vec::new();
    let all: BTreeSet<usize> = (0..n).collect();
    fn bk(
        r: &mut Vec<usize>,
        p: BTreeSet<usize>,
        x: BTreeSet<usize>,
        adj: &[HashSet<usize>],
        nodes: &[TupleId],
        out: &mut Vec<BTreeSet<TupleId>>,
        cap: usize,
    ) {
        if out.len() >= cap {
            return;
        }
        if p.is_empty() && x.is_empty() {
            out.push(r.iter().map(|&i| nodes[i]).collect());
            return;
        }
        // Pivot: vertex of P∪X with most *non*-neighbours in P… for
        // independent sets, "non-neighbour" plays the role cliques give
        // to neighbours.
        let pivot = p
            .iter()
            .chain(x.iter())
            .copied()
            .max_by_key(|&u| p.iter().filter(|&&v| v != u && !adj[u].contains(&v)).count());
        let candidates: Vec<usize> = match pivot {
            Some(u) => p.iter().copied().filter(|&v| v == u || adj[u].contains(&v)).collect(),
            None => p.iter().copied().collect(),
        };
        let mut p = p;
        let mut x = x;
        for v in candidates {
            if out.len() >= cap {
                return;
            }
            r.push(v);
            let p2: BTreeSet<usize> =
                p.iter().copied().filter(|&w| w != v && !adj[v].contains(&w)).collect();
            let x2: BTreeSet<usize> = x.iter().copied().filter(|&w| !adj[v].contains(&w)).collect();
            bk(r, p2, x2, adj, nodes, out, cap);
            r.pop();
            p.remove(&v);
            x.insert(v);
        }
    }
    let mut r = Vec::new();
    bk(&mut r, all, BTreeSet::new(), &adj, &nodes, &mut out, cap);
    debug_assert!(!out.is_empty(), "at least the empty kept-set is a repair");
    out
}

/// Materialise a repair as a table: all conflict-free tuples plus the
/// kept set.
pub fn repair_table(table: &Table, graph: &ConflictGraph, kept: &BTreeSet<TupleId>) -> Table {
    let mut out = Table::new(table.schema().clone());
    for (id, row) in table.rows() {
        if graph.is_clean(id) || kept.contains(&id) {
            out.push_unchecked(row);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use revival_constraints::parser::parse_cfds;
    use revival_relation::{Schema, Type};

    fn schema() -> Schema {
        Schema::builder("r").attr("k", Type::Str).attr("v", Type::Str).attr("w", Type::Str).build()
    }

    fn suite(s: &Schema) -> Vec<Cfd> {
        parse_cfds("r([k] -> [v])", s).unwrap()
    }

    fn table(rows: &[[&str; 3]]) -> Table {
        let mut t = Table::new(schema());
        for r in rows {
            t.push(r.iter().map(|x| (*x).into()).collect()).unwrap();
        }
        t
    }

    #[test]
    fn conflict_edges_between_disagreeing_tuples() {
        let s = schema();
        let t = table(&[
            ["a", "1", "x"],
            ["a", "2", "x"], // conflicts with t0
            ["a", "1", "y"], // agrees with t0, conflicts with t1
            ["b", "9", "z"], // clean
        ]);
        let g = ConflictGraph::build(&t, &suite(&s));
        assert!(g.edges[&TupleId(0)].contains(&TupleId(1)));
        assert!(g.edges[&TupleId(1)].contains(&TupleId(2)));
        assert!(!g.edges[&TupleId(0)].contains(&TupleId(2)));
        assert!(g.is_clean(TupleId(3)));
        assert!(!g.is_consistent());
    }

    #[test]
    fn repairs_of_two_way_conflict() {
        let s = schema();
        let t = table(&[["a", "1", "x"], ["a", "2", "x"]]);
        let g = ConflictGraph::build(&t, &suite(&s));
        let repairs = enumerate_repairs(&g, 100);
        assert_eq!(repairs.len(), 2);
        // Each repair keeps exactly one of the two.
        for r in &repairs {
            assert_eq!(r.len(), 1);
        }
    }

    #[test]
    fn multipartite_group_repairs() {
        let s = schema();
        // Group with values 1,1,2: repairs = {t0,t1} or {t2}.
        let t = table(&[["a", "1", "x"], ["a", "1", "y"], ["a", "2", "z"]]);
        let g = ConflictGraph::build(&t, &suite(&s));
        let repairs = enumerate_repairs(&g, 100);
        assert_eq!(repairs.len(), 2);
        let sizes: BTreeSet<usize> = repairs.iter().map(BTreeSet::len).collect();
        assert_eq!(sizes, [1usize, 2].into());
    }

    #[test]
    fn doomed_tuples_in_no_repair() {
        let s = schema();
        let cfds = parse_cfds("r([k='a'] -> [v='1'])", &s).unwrap();
        let t = table(&[["a", "2", "x"], ["b", "5", "y"]]);
        let g = ConflictGraph::build(&t, &cfds);
        assert!(g.doomed.contains(&TupleId(0)));
        let repairs = enumerate_repairs(&g, 100);
        assert_eq!(repairs.len(), 1);
        let full = repair_table(&t, &g, &repairs[0]);
        assert_eq!(full.len(), 1); // only the clean b tuple survives
    }

    #[test]
    fn repair_tables_are_consistent_and_maximal() {
        let s = schema();
        let cfds = suite(&s);
        let t = table(&[
            ["a", "1", "x"],
            ["a", "2", "x"],
            ["b", "3", "y"],
            ["b", "3", "z"],
            ["c", "7", "w"],
        ]);
        let g = ConflictGraph::build(&t, &cfds);
        let repairs = enumerate_repairs(&g, 100);
        assert!(!repairs.is_empty());
        for kept in &repairs {
            let rt = repair_table(&t, &g, kept);
            for cfd in &cfds {
                assert!(cfd.satisfied_by(&rt));
            }
            // Maximality: adding any excluded conflicting tuple breaks it.
            for excluded in g.conflicting_tuples() {
                if kept.contains(&excluded) || g.doomed.contains(&excluded) {
                    continue;
                }
                let mut bigger = rt.clone();
                bigger.push_unchecked(t.get(excluded).unwrap());
                assert!(
                    cfds.iter().any(|c| !c.satisfied_by(&bigger)),
                    "repair not maximal: could add {excluded}"
                );
            }
        }
    }

    #[test]
    fn consistent_instance_single_empty_repair() {
        let s = schema();
        let t = table(&[["a", "1", "x"], ["b", "2", "y"]]);
        let g = ConflictGraph::build(&t, &suite(&s));
        assert!(g.is_consistent());
        let repairs = enumerate_repairs(&g, 10);
        assert_eq!(repairs.len(), 1);
        assert!(repairs[0].is_empty());
        assert_eq!(repair_table(&t, &g, &repairs[0]).len(), 2);
    }

    #[test]
    fn cap_limits_enumeration() {
        let s = schema();
        // 4 independent two-way conflicts → 16 repairs; cap at 5.
        let t = table(&[
            ["a", "1", "x"],
            ["a", "2", "x"],
            ["b", "1", "x"],
            ["b", "2", "x"],
            ["c", "1", "x"],
            ["c", "2", "x"],
            ["d", "1", "x"],
            ["d", "2", "x"],
        ]);
        let g = ConflictGraph::build(&t, &suite(&s));
        let repairs = enumerate_repairs(&g, 5);
        assert_eq!(repairs.len(), 5);
        let all = enumerate_repairs(&g, 1000);
        assert_eq!(all.len(), 16);
    }
}
