//! Seeded inputs: dirty tables with ground truth through
//! `revival_dirty`, their CFD suites as text, and the wire-protocol
//! request streams of the serve workloads. The program under test only
//! ever sees what is generated here — files on disk and protocol lines.

use crate::json::quote;
use revival_constraints::parser::cfd_to_text;
use revival_constraints::Cfd;
use revival_dirty::noise::{inject, DirtyDataset, NoiseConfig};
use revival_dirty::{customer, hospital};
use revival_relation::{Schema, Table};
use std::sync::Arc;

/// splitmix64: the ledger's own generator for request streams, so the
/// op mix does not move when `vendor/rand` does.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias at these sizes is
    /// far below anything the workloads can observe.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A dirty table with its clean origin, the suite that constrains it,
/// and the attributes noise went into (the ones repair is scored on).
pub struct Dataset {
    pub relation: &'static str,
    pub truth: DirtyDataset,
    pub schema: Schema,
    pub suite: Vec<Cfd>,
    pub noise_attrs: Vec<usize>,
    /// The attribute the serve request streams `update`: constrained by
    /// the suite, so an update can raise or clear a violation.
    pub update_attr: usize,
}

impl Dataset {
    /// The suite in `parse_cfds` syntax — what lands in `cfds.txt`.
    pub fn suite_text(&self) -> String {
        self.suite.iter().map(|c| cfd_to_text(c, &self.schema)).collect()
    }

    /// The first `n` rows as a dataset of their own (rows are drawn
    /// independently and noise falls uniformly, so a prefix has the
    /// same shape as the whole).
    pub fn head(&self, n: usize) -> Dataset {
        let take = |t: &Table| {
            let mut out = Table::with_capacity(t.schema().clone(), n);
            for (_, row) in t.rows().take(n) {
                out.push_unchecked(row);
            }
            out
        };
        Dataset {
            relation: self.relation,
            truth: DirtyDataset {
                dirty: take(&self.truth.dirty),
                clean: take(&self.truth.clean),
                modified: self
                    .truth
                    .modified
                    .iter()
                    .filter(|(id, _)| (id.0 as usize) < n)
                    .copied()
                    .collect(),
            },
            schema: self.schema.clone(),
            suite: self.suite.clone(),
            noise_attrs: self.noise_attrs.clone(),
            update_attr: self.update_attr,
        }
    }
}

/// `dirty::hospital`: noise on state / measure_name / hname, the
/// standard 8-CFD normal-form suite.
pub fn hospital(rows: usize, noise: f64, seed: u64) -> Dataset {
    use hospital::attrs as h;
    let data = hospital::generate(&hospital::HospitalConfig { rows, seed, ..Default::default() });
    let noise_attrs = vec![h::STATE, h::MEASURE_NAME, h::HNAME];
    let truth = inject(&data.table, &NoiseConfig::new(noise, noise_attrs.clone(), seed ^ 0x405b));
    let suite = hospital::standard_cfds(&data.schema);
    Dataset {
        relation: "hospital",
        truth,
        schema: data.schema,
        suite,
        noise_attrs,
        update_attr: h::STATE,
    }
}

/// `dirty::customer`: noise on street / city / zip. `constant_cfds`
/// selects `scaled_suite(data, n)` (3 variable + n constant CFDs) over
/// the standard 5-CFD suite.
pub fn customer(rows: usize, noise: f64, seed: u64, constant_cfds: Option<usize>) -> Dataset {
    use customer::attrs as c;
    let data = customer::generate(&customer::CustomerConfig { rows, seed, ..Default::default() });
    let noise_attrs = vec![c::STREET, c::CITY, c::ZIP];
    let truth = inject(&data.table, &NoiseConfig::new(noise, noise_attrs.clone(), seed ^ 0xd1f7));
    let suite = match constant_cfds {
        Some(n) => customer::scaled_suite(&data, n),
        None => customer::standard_cfds(&data.schema),
    };
    Dataset {
        relation: "customer",
        truth,
        schema: data.schema,
        suite,
        noise_attrs,
        update_attr: c::CITY,
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Append,
    Update,
    Delete,
    Count,
    Report,
}

impl OpKind {
    pub const ALL: [OpKind; 5] =
        [OpKind::Append, OpKind::Update, OpKind::Delete, OpKind::Count, OpKind::Report];

    /// The protocol verb, as metric names spell it.
    pub fn verb(self) -> &'static str {
        match self {
            OpKind::Append => "append",
            OpKind::Update => "update",
            OpKind::Delete => "delete",
            OpKind::Count => "count",
            OpKind::Report => "report",
        }
    }

    pub fn is_mutation(self) -> bool {
        matches!(self, OpKind::Append | OpKind::Update | OpKind::Delete)
    }
}

/// Request mix in parts per thousand, in [`OpKind::ALL`] order.
#[derive(Clone, Copy, Debug)]
pub struct Mix(pub [u32; 5]);

/// What every client's request stream draws from: the held-out rows to
/// append (CSV lines, ≈ the noise rate of them violating) and the
/// values an `update` may write.
pub struct OpSource {
    pub table: String,
    pub append_rows: Vec<String>,
    pub update_attr: String,
    pub update_values: Vec<String>,
}

/// One client's request stream: a pure function of (seed, client), so
/// a single-threaded replay of every client's stream reaches the same
/// final table as the live run. `update` and `delete` only ever name
/// base-table tuple ids this client owns, and never a deleted one, so
/// no request is invalid whatever the interleaving.
pub struct OpGen {
    source: Arc<OpSource>,
    mix: Mix,
    rng: Rng,
    next_append: usize,
    delete_ids: Vec<u64>,
    update_ids: Vec<u64>,
}

impl OpGen {
    pub fn new(
        source: Arc<OpSource>,
        mix: Mix,
        seed: u64,
        client: usize,
        clients: usize,
        base_rows: usize,
    ) -> OpGen {
        assert_eq!(mix.0.iter().sum::<u32>(), 1000, "mix is in parts per thousand");
        let mut rng = Rng::new(seed ^ (client as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
        let mut owned: Vec<u64> =
            (0..base_rows as u64).filter(|id| *id as usize % clients == client).collect();
        rng.shuffle(&mut owned);
        // Three fifths of the owned ids may be deleted, the rest stay
        // live as update targets for the whole run.
        let update_ids = owned.split_off(owned.len() * 3 / 5);
        assert!(!update_ids.is_empty(), "base table too small for {clients} client(s)");
        let next_append = rng.below(source.append_rows.len());
        OpGen { source, mix, rng, next_append, delete_ids: owned, update_ids }
    }

    /// The next `n` requests as (kind, newline-terminated line). Each
    /// round holds exactly the mix's share of every kind (largest
    /// remainders rounded up), in seeded order: a round with eight
    /// `report`s is not compared against one that drew fifteen.
    pub fn round(&mut self, n: usize) -> Vec<(OpKind, String)> {
        let mut counts: Vec<usize> =
            self.mix.0.iter().map(|share| n * *share as usize / 1000).collect();
        let mut by_remainder: Vec<usize> = (0..counts.len()).collect();
        by_remainder.sort_by_key(|k| std::cmp::Reverse(n * self.mix.0[*k] as usize % 1000));
        let short = n - counts.iter().sum::<usize>();
        for k in by_remainder.into_iter().take(short) {
            counts[k] += 1;
        }
        let mut kinds: Vec<OpKind> = OpKind::ALL
            .into_iter()
            .zip(counts)
            .flat_map(|(k, c)| std::iter::repeat_n(k, c))
            .collect();
        self.rng.shuffle(&mut kinds);
        kinds.into_iter().map(|kind| self.line(kind)).collect()
    }

    fn line(&mut self, mut kind: OpKind) -> (OpKind, String) {
        // A client that has used up its deletable ids keeps the write
        // share by updating instead.
        if kind == OpKind::Delete && self.delete_ids.is_empty() {
            kind = OpKind::Update;
        }
        let table = &self.source.table;
        let line = match kind {
            OpKind::Append => {
                let row = &self.source.append_rows[self.next_append];
                self.next_append = (self.next_append + 1) % self.source.append_rows.len();
                format!("{{\"cmd\":\"append\",\"table\":\"{table}\",\"row\":{}}}\n", quote(row))
            }
            OpKind::Update => {
                let id = self.update_ids[self.rng.below(self.update_ids.len())];
                let values = &self.source.update_values;
                let value = &values[self.rng.below(values.len())];
                format!(
                    "{{\"cmd\":\"update\",\"table\":\"{table}\",\"tuple\":{id},\"attr\":\"{}\",\"value\":{}}}\n",
                    self.source.update_attr,
                    quote(value)
                )
            }
            OpKind::Delete => {
                let id = self.delete_ids.pop().expect("checked non-empty above");
                format!("{{\"cmd\":\"delete\",\"table\":\"{table}\",\"tuple\":{id}}}\n")
            }
            OpKind::Count => "{\"cmd\":\"count\"}\n".to_string(),
            OpKind::Report => "{\"cmd\":\"report\",\"max\":20}\n".to_string(),
        };
        (kind, line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use revival_stream::Request;

    fn source() -> Arc<OpSource> {
        Arc::new(OpSource {
            table: "customer".into(),
            append_rows: (0..50)
                .map(|i| format!("44,131,{i},\"a, b\",High St,edi,EH{i}"))
                .collect(),
            update_attr: "city".into(),
            update_values: vec!["edi".into(), "e\"di".into()],
        })
    }

    #[test]
    fn rng_is_seeded_and_spreads() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..4).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs[0], Rng::new(8).next_u64());
        let mut seen = [false; 10];
        for _ in 0..200 {
            seen[a.below(10)] = true;
        }
        assert!(seen.iter().all(|s| *s));
        let mut items: Vec<u32> = (0..20).collect();
        a.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        assert_ne!(items, sorted);
    }

    #[test]
    fn op_stream_is_valid_protocol_and_never_reuses_a_deleted_id() {
        let mix = Mix([300, 200, 300, 150, 50]);
        let mut gens: Vec<OpGen> =
            (0..2).map(|c| OpGen::new(source(), mix, 11, c, 2, 40)).collect();
        let mut deleted = std::collections::BTreeSet::new();
        let mut deletes = 0;
        for round in 0..10 {
            let client = round % 2;
            let ops = gens[client].round(20);
            // Exactly the mix's share of every kind, every round —
            // until the 12 deletable ids per client run out and
            // deletes turn into updates.
            let count = |k: OpKind| ops.iter().filter(|(kind, _)| *kind == k).count();
            assert_eq!(
                (count(OpKind::Append), count(OpKind::Count), count(OpKind::Report)),
                (6, 3, 1)
            );
            assert_eq!(count(OpKind::Update) + count(OpKind::Delete), 10);
            deletes += count(OpKind::Delete);
            for (kind, line) in ops {
                assert!(line.ends_with('\n') && line.matches('\n').count() == 1);
                let verb = Request::parse(&line).expect("generated line parses").verb();
                assert_eq!(kind.is_mutation(), matches!(verb, "append" | "update" | "delete"));
                let fields = Json::parse(&line).unwrap();
                let Some(tuple) = fields.get("tuple").and_then(Json::as_f64) else { continue };
                assert_eq!(tuple as usize % 2, client, "clients own disjoint ids");
                if kind == OpKind::Delete {
                    assert!(deleted.insert(tuple as u64), "id {tuple} deleted twice");
                } else {
                    assert!(!deleted.contains(&(tuple as u64)), "update of deleted id {tuple}");
                }
            }
        }
        assert_eq!(deletes, 24);

        // Shares that do not divide the round: largest remainders round up.
        let odd = OpGen::new(source(), Mix([200, 48, 0, 750, 2]), 1, 0, 1, 40).round(100);
        let count = |k: OpKind| odd.iter().filter(|(kind, _)| *kind == k).count();
        assert_eq!(
            (
                count(OpKind::Append),
                count(OpKind::Update),
                count(OpKind::Count),
                count(OpKind::Report)
            ),
            (20, 5, 75, 0)
        );

        let again = OpGen::new(source(), mix, 11, 0, 2, 40).round(50);
        assert_eq!(
            again,
            OpGen::new(source(), mix, 11, 0, 2, 40).round(50),
            "same seed, same stream"
        );
        assert_ne!(again, OpGen::new(source(), mix, 12, 0, 2, 40).round(50));
    }

    #[test]
    fn datasets_are_seeded_and_heads_keep_ground_truth() {
        let a = hospital(400, 0.05, 3);
        let b = hospital(400, 0.05, 3);
        assert_eq!(a.truth.dirty.diff_cells(&b.truth.dirty), 0);
        assert_eq!(a.suite.len(), 8);
        assert!(a.suite_text().lines().count() >= 8);
        let head = a.head(100);
        assert_eq!(head.truth.dirty.len(), 100);
        assert_eq!(head.truth.dirty.diff_cells(&head.truth.clean), head.truth.error_count());
        assert!(head.truth.error_count() > 0 && head.truth.error_count() < a.truth.error_count());

        let c = customer(300, 0.05, 3, Some(10));
        assert_eq!(c.suite.len(), 13);
        assert_eq!(customer(300, 0.05, 3, None).suite.len(), 5);
        assert!(c.truth.dirty.diff_cells(&customer(300, 0.05, 4, Some(10)).truth.dirty) > 0);
    }
}
