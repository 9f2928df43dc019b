//! The unified discovery engine layer — profiling's counterpart of the
//! `Detector` trait in `revival-detect`.
//!
//! The CLI's `discover` and the serve protocol's `discover` verb both
//! run through this layer; its miners are called directly only to time
//! or count one of them (the benchmark's per-layer metrics, work-count
//! tests). A
//! [`DiscoverJob`] names the data (one table or a catalog) plus
//! [`DiscoverOptions`]; a [`DiscoveryEngine`] turns it into a
//! [`Discovered`] suite: mined CFDs with per-rule support/confidence,
//! CIND candidates (catalog jobs), the *vetted* suite (minimal cover +
//! satisfiability via `revival_constraints::analysis`), and
//! [`DiscoveryStats`] that report every search cap instead of
//! truncating silently.
//!
//! [`ParallelDiscovery`] shards each lattice level's candidate checks
//! across scoped workers ([`revival_relation::map_chunks`], the helper
//! detect and repair shard with) and merges chunk outputs in candidate
//! order, so its rule lists are **byte-identical** to
//! [`SequentialDiscovery`]'s at any `jobs` — the same determinism
//! contract the detection and repair engines keep. `jobs` shards the
//! lattice only: a job builds one item index per table
//! (`(attribute, Sym)` → row list) and every support count reads it —
//! the constant miner's itemsets are classes of partitions built from
//! it, as the lattice's are, and the lattice's conditional probe
//! sums the class errors of the candidate's partition — which leaves
//! the constant miner nothing worth sharding, so it runs on the caller.
//! No group key is hashed anywhere in the lattice.
//!
//! Vetting reads the rules as the miners hand them over. A table's
//! constant rules arrive ordered and turn straight into mined CFDs,
//! each already assigned its *block* — the embedded FD it merges into,
//! looked up by attribute list, never by value. A CFDMiner row is
//! unique within its embedded FD by construction (at most one rule per
//! free itemset and closure attribute, with a constant RHS no lattice
//! row has), so only the lattice's few rows go through
//! `merge_by_embedded_fd`'s deduplicating hash; every constant row is
//! cloned once into its block, sized before it is filled. The merged
//! suite is byte-for-byte what that merge builds over all the rules.

use crate::cfdminer::{self, MinedRules, MinerOptions};
use crate::ind_disc;
pub use crate::ind_disc::MinedCind;
use crate::tane;
use revival_constraints::analysis::{self, CoverReport, Outcome};
use revival_constraints::pattern::{PatternRow, PatternValue};
use revival_constraints::Cfd;
use revival_relation::groupby::hash_words;
use revival_relation::partition::ItemIndex;
use revival_relation::{AttrId, Catalog, Error, GroupBy, Result, Table};
use std::ops::Range;
use std::time::Instant;

/// The implied-row drop of `minimal_cover` is quadratic in tableau
/// rows with an NP-hard implication check per row — feasible for
/// curated suites, not for the hundreds of rules a raw mine can
/// produce. Relations whose merged suite exceeds this many rows get the
/// cheap cover only (merge by embedded FD + subsumption); the cut is
/// reported via [`DiscoveryStats::cover_implication_skipped`], never
/// silent.
const FULL_COVER_LIMIT: usize = 48;

/// Options for a discovery run.
#[derive(Clone, Debug)]
pub struct DiscoverOptions {
    /// Minimum matching tuples for any mined rule (plain FDs count the
    /// whole table; conditional/constant rules count pattern matches).
    pub min_support: usize,
    /// Minimum per-rule confidence: the fraction of matching tuples
    /// kept after removing a minimal set of violators (TANE's `g3`
    /// stripped-partition error). `1.0` mines only exactly-satisfied
    /// rules; below `1.0` mines usable rules from *dirty* data.
    pub min_confidence: f64,
    /// Maximum LHS size explored in the lattice (and maximum constant
    /// itemset size for CFDMiner).
    pub max_lhs: usize,
    /// Per attribute, only the `top_values` most frequent constants are
    /// probed as conditions (single-constant patterns); values dropped
    /// by this cap are counted in
    /// [`DiscoveryStats::candidates_pruned`]. `0` disables conditional
    /// probing.
    pub top_values: usize,
    /// Node budget for the vetting analyses (`minimal_cover`,
    /// `is_satisfiable`); exhausting it conservatively keeps rows and
    /// reports [`Outcome::ResourceLimit`].
    pub vet_budget: usize,
    /// Shard count for [`ParallelDiscovery`]'s lattice walk (0 = one
    /// per available core); [`SequentialDiscovery`] ignores it.
    pub jobs: usize,
}

impl Default for DiscoverOptions {
    fn default() -> Self {
        DiscoverOptions {
            min_support: 3,
            min_confidence: 1.0,
            max_lhs: 2,
            top_values: 8,
            vet_budget: 50_000,
            jobs: 1,
        }
    }
}

/// The data a discovery job profiles: one in-memory table, or a catalog
/// (which additionally enables IND/CIND discovery across relations).
#[derive(Clone, Copy)]
enum DataRef<'a> {
    Table(&'a Table),
    Catalog(&'a Catalog),
}

/// One discovery request: data plus options.
#[derive(Clone)]
pub struct DiscoverJob<'a> {
    data: DataRef<'a>,
    pub options: DiscoverOptions,
}

impl<'a> DiscoverJob<'a> {
    /// A job over a single table (the common CLI/session case).
    pub fn on_table(table: &'a Table, options: DiscoverOptions) -> Self {
        DiscoverJob { data: DataRef::Table(table), options }
    }

    /// A job over a catalog of relations (adds IND→CIND lifting).
    pub fn on_catalog(catalog: &'a Catalog, options: DiscoverOptions) -> Self {
        DiscoverJob { data: DataRef::Catalog(catalog), options }
    }

    /// The backing catalog, if the job was built over one.
    pub fn catalog(&self) -> Option<&'a Catalog> {
        match self.data {
            DataRef::Catalog(c) => Some(c),
            DataRef::Table(_) => None,
        }
    }

    /// Every table the job profiles, in deterministic (name) order.
    pub fn tables(&self) -> Vec<&'a Table> {
        match self.data {
            DataRef::Table(t) => vec![t],
            DataRef::Catalog(c) => {
                let mut names: Vec<&str> = c.relation_names().collect();
                names.sort_unstable();
                names.iter().filter_map(|n| c.get(n).ok()).collect()
            }
        }
    }
}

/// A mined CFD with its evidence.
#[derive(Clone, Debug, PartialEq)]
pub struct MinedCfd {
    pub cfd: Cfd,
    /// Tuples the rule's pattern matches (plain FDs: the whole table).
    pub support: usize,
    /// `1 − g3/support`: the fraction of matching tuples kept after
    /// removing a minimal set of violators. `1.0` = holds exactly.
    pub confidence: f64,
}

/// Search accounting: every bound the miners apply is reported here,
/// never applied silently.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiscoveryStats {
    /// Candidate dependencies actually checked against the data.
    pub candidates_checked: usize,
    /// Candidates skipped by a bound: minimality pruning in the
    /// lattice, condition values beyond `top_values`, infrequent
    /// itemsets in CFDMiner.
    pub candidates_pruned: usize,
    /// True when the level-wise search stopped at `max_lhs` with live
    /// candidates remaining — larger LHSs were never examined.
    pub lattice_truncated: bool,
    /// Lattice levels actually explored.
    pub levels: usize,
    /// Constant rules dropped because an exact mined FD over the same
    /// embedded dependency already covers their tuples.
    pub constants_subsumed: usize,
    /// Closure attributes CFDMiner left out because a parent itemset's
    /// closure already held them: `X → A` is not left-reduced when a
    /// proper subset of `X` already fixes `A`.
    pub constants_not_minimal: usize,
    /// True when some relation's mined suite exceeded 48 tableau rows
    /// (`FULL_COVER_LIMIT`), so vetting ran only the
    /// cheap cover (merge + subsumption) and skipped the quadratic
    /// implied-row drop for it.
    pub cover_implication_skipped: bool,
    /// Rows read to count the support of an itemset (CFDMiner: Σ parent
    /// supports, not candidates × table rows) plus the class
    /// representatives the lattice's conditional probes read (one per
    /// stripped class of `π_X` per probed LHS attribute, not the rows
    /// inside them); identical at any `jobs`.
    pub support_rows_touched: usize,
}

impl DiscoveryStats {
    /// Fold another miner's accounting into this one.
    pub fn absorb(&mut self, other: &DiscoveryStats) {
        self.candidates_checked += other.candidates_checked;
        self.candidates_pruned += other.candidates_pruned;
        self.lattice_truncated |= other.lattice_truncated;
        self.levels = self.levels.max(other.levels);
        self.constants_subsumed += other.constants_subsumed;
        self.constants_not_minimal += other.constants_not_minimal;
        self.cover_implication_skipped |= other.cover_implication_skipped;
        self.support_rows_touched += other.support_rows_touched;
    }
}

/// The result of a discovery run: the raw mined rules (with evidence),
/// the vetted suite, and the search accounting.
#[derive(Clone, Debug)]
pub struct Discovered {
    /// Every mined CFD in deterministic order (lattice rules per
    /// relation, then constant rules), each with support/confidence.
    /// Constant rules are *left-reduced* (Fan, Geerts, Li, Xiong,
    /// *Discovering Conditional Functional Dependencies*, ICDE 2009): a
    /// rule `X → A = a` is kept only if no proper non-empty subset of
    /// its LHS constants already fixes `A` to `a` on the data.
    pub rules: Vec<MinedCfd>,
    /// The vetted suite: per relation, the minimal cover of the mined
    /// rules (`analysis::minimal_cover` — merged by embedded FD,
    /// subsumed and implied rows dropped). This is what `semandaq
    /// discover --emit` writes and `register` installs.
    pub vetted: Vec<Cfd>,
    /// Satisfiability of the vetted suite (per-relation checks folded:
    /// any `No` wins, else any `ResourceLimit`, else `Yes`).
    pub satisfiable: Outcome,
    /// Accumulated minimal-cover accounting across relations.
    pub cover: CoverReport,
    /// CIND candidates (catalog jobs only): satisfied unary INDs plus
    /// violated inclusions lifted to conditional form.
    pub cinds: Vec<MinedCind>,
    /// Search accounting across all miners.
    pub stats: DiscoveryStats,
}

/// A dependency-discovery engine.
///
/// Implementations must agree on *what* they mine — byte-identical
/// [`Discovered::rules`] lists, asserted by parity tests — and differ
/// only in how the lattice walk is scheduled.
pub trait DiscoveryEngine {
    /// Engine name, as the CLI `--engine` flag spells it.
    fn name(&self) -> &'static str;

    /// The shard count the engine resolves for `job`.
    fn shards(&self, job: &DiscoverJob<'_>) -> usize;

    /// Mine, vet, and account for the job's suite.
    fn run(&self, job: &DiscoverJob<'_>) -> Result<Discovered> {
        run_job(job, self.shards(job), None)
    }

    /// [`DiscoveryEngine::run`] with a [`revival_obs::JobProfile`]
    /// alongside: identical output (profiling is side-effect-only),
    /// plus one row per lattice level (`level`: candidates
    /// checked/pruned, g3 evaluations, probe reads, partition-build µs),
    /// per constant-mining level (`itemsets`: candidates checked/pruned,
    /// support rows touched), per relation for the constant rule list
    /// (`rules`: order, convert) and for vetting (`vetting`: tableau
    /// rows in), and lattice / constant-rules (of which `rules_order`
    /// and `rules_convert`) / vetting (merge, cover, satisfiability) /
    /// cind-mining phases.
    fn run_profiled(&self, job: &DiscoverJob<'_>) -> Result<(Discovered, revival_obs::JobProfile)> {
        let jobs = self.shards(job);
        let mut profile = revival_obs::JobProfile::new("discovery", self.name(), jobs as u64);
        let start = Instant::now();
        let discovered = run_job(job, jobs, Some(&mut profile))?;
        let us = start.elapsed().as_micros() as u64;
        profile.meta_add("rules_mined", discovered.rules.len() as u64);
        profile.meta_add("rules_vetted", discovered.vetted.len() as u64);
        profile.meta_add("candidates_checked", discovered.stats.candidates_checked as u64);
        profile.meta_add("candidates_pruned", discovered.stats.candidates_pruned as u64);
        profile.meta_add("levels", discovered.stats.levels as u64);
        profile.meta_add("constants_not_minimal", discovered.stats.constants_not_minimal as u64);
        profile.meta_add("support_rows_touched", discovered.stats.support_rows_touched as u64);
        profile.finish(us);
        Ok((discovered, profile))
    }
}

/// The sequential reference engine (one worker, `options.jobs`
/// ignored).
#[derive(Clone, Copy, Debug, Default)]
pub struct SequentialDiscovery;

impl DiscoveryEngine for SequentialDiscovery {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn shards(&self, _job: &DiscoverJob<'_>) -> usize {
        1
    }
}

/// The sharded engine: each lattice level's candidate checks (and the
/// next level's partition builds) run on `options.jobs` scoped threads;
/// chunk outputs merge in candidate order, so the mined rule list is
/// byte-identical to [`SequentialDiscovery`]'s at any shard count. The
/// constant miner and vetting run on the caller either way.
#[derive(Clone, Copy, Debug, Default)]
pub struct ParallelDiscovery;

impl DiscoveryEngine for ParallelDiscovery {
    fn name(&self) -> &'static str {
        "parallel"
    }

    fn shards(&self, job: &DiscoverJob<'_>) -> usize {
        revival_relation::resolve_jobs(job.options.jobs)
    }
}

/// Look an engine up by CLI name.
pub fn discovery_by_name(name: &str) -> Result<Box<dyn DiscoveryEngine>> {
    match name {
        "sequential" => Ok(Box::new(SequentialDiscovery)),
        "parallel" => Ok(Box::new(ParallelDiscovery)),
        other => {
            Err(Error::Io(format!("unknown discovery engine `{other}` (sequential|parallel)")))
        }
    }
}

/// The shared engine body: index every table's items, mine its lattice
/// (sharded), add CFDMiner constant rules, vet per relation, and lift
/// INDs to CINDs on catalog jobs.
fn run_job(
    job: &DiscoverJob<'_>,
    jobs: usize,
    mut profile: Option<&mut revival_obs::JobProfile>,
) -> Result<Discovered> {
    let run_span = revival_obs::Span::traced(
        "discovery.run",
        revival_obs::global().histogram("discovery_run_us"),
    );
    let opts = &job.options;
    let tables = job.tables();
    let mut rules: Vec<MinedCfd> = Vec::new();
    let mut blocks: Vec<Blocks> = Vec::with_capacity(tables.len());
    let mut stats = DiscoveryStats::default();
    let (mut lattice_us, mut constant_us, mut order_us, mut convert_us) = (0u64, 0u64, 0u64, 0u64);
    for table in &tables {
        let stage = Instant::now();
        // One item index per table: the lattice's partitions and probes
        // and the constant miner's support counts all read it.
        let index = ItemIndex::build(table);
        let index_us = stage.elapsed().as_micros() as u64;
        let (mined, tstats) = tane::mine_lattice_inner(&index, opts, jobs, profile.as_deref_mut());
        lattice_us += stage.elapsed().as_micros() as u64;
        stats.absorb(&tstats);
        let lattice = rules.len()..rules.len() + mined.len();
        rules.extend(mined);
        let stage = Instant::now();
        // Constant CFDs are always mined too, via CFDMiner (free-itemset
        // closures). Support counted by partition products leaves
        // nothing worth sharding: the constant miner runs on the caller
        // at any `jobs`.
        let (mut constants, cstats) = cfdminer::mine_indexed(
            &index,
            &MinerOptions { min_support: opts.min_support.max(1), max_size: opts.max_lhs },
            profile.as_deref_mut(),
        );
        stats.absorb(&cstats);
        let order_start = Instant::now();
        constants.order(&index);
        let convert_start = Instant::now();
        let table_blocks = add_constant_rules(&index, &constants, lattice, &mut rules, &mut stats);
        blocks.push(table_blocks);
        let (ordered, converted) = (convert_start - order_start, convert_start.elapsed());
        order_us += ordered.as_micros() as u64;
        convert_us += converted.as_micros() as u64;
        if let Some(p) = profile.as_deref_mut() {
            // Level 1's supports *are* the index.
            p.entry(&cfdminer::level_row(table, 1), "itemsets").wall_us += index_us;
            p.entry(&cfdminer::rules_row(table), "rules").wall_us +=
                (ordered + converted).as_micros() as u64;
        }
        constant_us += stage.elapsed().as_micros() as u64;
    }

    // Vet per relation: minimal cover + satisfiability. Budget
    // exhaustion keeps rows conservatively (the cover stays equivalent)
    // and reports ResourceLimit rather than a wrong answer.
    let vet_start = Instant::now();
    let mut vetted: Vec<Cfd> = Vec::new();
    let mut cover = CoverReport::default();
    let mut satisfiable = Outcome::Yes;
    let (mut merge_us, mut cover_us, mut satisfiable_us) = (0u64, 0u64, 0u64);
    for (table, table_blocks) in tables.iter().zip(&blocks) {
        let relation_start = Instant::now();
        let name = table.schema().name();
        // The full minimal cover runs an NP-hard implication check per
        // tableau row, quadratically — fine for the handfuls of rules a
        // vetted workload keeps, hopeless for a raw mine of hundreds.
        // Past the limit, vet with the cheap cover (merge by embedded
        // FD + subsumption pruning, the same first phase minimal_cover
        // runs — re-merging a merged suite is the identity) and say so
        // in the stats.
        let merged = table_blocks.merge(&rules);
        if merged.is_empty() {
            continue;
        }
        let merged_at = relation_start.elapsed().as_micros() as u64;
        let rows_in: usize = merged.iter().map(|c| c.tableau.len()).sum();
        let (cov, rep) = if rows_in <= FULL_COVER_LIMIT {
            analysis::minimal_cover(table.schema(), &merged, opts.vet_budget)
        } else {
            stats.cover_implication_skipped = true;
            let mut cheap = merged;
            let mut rep = CoverReport { rows_in, ..CoverReport::default() };
            for cfd in &mut cheap {
                let before = cfd.tableau.len();
                cfd.prune_subsumed_rows();
                rep.subsumed_dropped += before - cfd.tableau.len();
            }
            rep.rows_out = cheap.iter().map(|c| c.tableau.len()).sum();
            (cheap, rep)
        };
        let covered_at = relation_start.elapsed().as_micros() as u64;
        match analysis::is_satisfiable(table.schema(), &cov, opts.vet_budget) {
            Outcome::Yes => {}
            Outcome::No => satisfiable = Outcome::No,
            Outcome::ResourceLimit => {
                if satisfiable == Outcome::Yes {
                    satisfiable = Outcome::ResourceLimit;
                }
            }
        }
        cover.rows_in += rep.rows_in;
        cover.rows_out += rep.rows_out;
        cover.implied_dropped += rep.implied_dropped;
        cover.subsumed_dropped += rep.subsumed_dropped;
        vetted.extend(cov);
        let wall_us = relation_start.elapsed().as_micros() as u64;
        merge_us += merged_at;
        cover_us += covered_at - merged_at;
        satisfiable_us += wall_us - covered_at;
        if let Some(p) = profile.as_deref_mut() {
            let row = p.entry(&format!("{name} vetting"), "vetting");
            row.rows_scanned += rep.rows_in as u64;
            row.wall_us += wall_us;
        }
    }

    let vetting_us = vet_start.elapsed().as_micros() as u64;

    let cind_start = Instant::now();
    let cinds = match job.catalog() {
        Some(catalog) => ind_disc::mine_cinds(catalog, opts.min_support)?,
        None => Vec::new(),
    };
    if let Some(p) = profile {
        p.phase_add("lattice", lattice_us);
        p.phase_add("constant_rules", constant_us);
        p.phase_add("rules_order", order_us);
        p.phase_add("rules_convert", convert_us);
        p.phase_add("vetting", vetting_us);
        p.phase_add("vet_merge", merge_us);
        p.phase_add("vet_cover", cover_us);
        p.phase_add("vet_satisfiable", satisfiable_us);
        p.phase_add("cind_mining", cind_start.elapsed().as_micros() as u64);
    }
    if revival_obs::enabled() {
        let reg = revival_obs::global();
        reg.counter("discovery_runs_total").inc();
        reg.counter("discovery_rules_mined_total").add(rules.len() as u64);
        reg.counter("discovery_rules_vetted_total").add(vetted.len() as u64);
        reg.counter("discovery_candidates_checked_total").add(stats.candidates_checked as u64);
        reg.counter("discovery_candidates_pruned_total").add(stats.candidates_pruned as u64);
        reg.counter("discovery_levels_total").add(stats.levels as u64);
        reg.counter("discovery_support_rows_touched_total").add(stats.support_rows_touched as u64);
    }
    drop(run_span);
    Ok(Discovered { rules, vetted, satisfiable, cover, cinds, stats })
}

/// One table's mined rules as vetting merges them: the lattice's rules
/// (`rules[lattice]`) and then the constant rules (`rules[constants]`),
/// each constant rule already assigned its block — the embedded FD it
/// merges into, numbered in first-seen order over the table's rules, so
/// the lattice's blocks come first.
struct Blocks {
    lattice: Range<usize>,
    constants: Range<usize>,
    /// Per constant rule, its block.
    block_of: Vec<u32>,
    /// Per block, the constant rows it receives.
    rows: Vec<usize>,
}

impl Blocks {
    /// The merged suite `merge_by_embedded_fd` builds from the table's
    /// rules — blocks in first-seen order, rows in rule order, each row
    /// once — with only the lattice's few rows hashed to deduplicate. A
    /// constant row needs no check: CFDMiner mines at most one rule per
    /// (free itemset, closure attribute), so its LHS constants are unique
    /// within its embedded FD, and its constant RHS differs from every
    /// lattice row's `_`.
    fn merge(&self, rules: &[MinedCfd]) -> Vec<Cfd> {
        let lattice = rules[self.lattice.clone()].iter().map(|m| &m.cfd);
        let mut merged = revival_constraints::cfd::merge_by_embedded_fd(lattice);
        merged.reserve_exact(self.rows.len() - merged.len());
        for (cfd, &rows) in merged.iter_mut().zip(&self.rows) {
            cfd.tableau.reserve_exact(rows);
        }
        for (rule, &block) in rules[self.constants.clone()].iter().zip(&self.block_of) {
            let block = block as usize;
            if block == merged.len() {
                let Cfd { relation, lhs, rhs, .. } = &rule.cfd;
                let tableau = Vec::with_capacity(self.rows[block]);
                merged.push(Cfd {
                    relation: relation.clone(),
                    lhs: lhs.clone(),
                    rhs: *rhs,
                    tableau,
                });
            }
            merged[block].tableau.push(rule.cfd.tableau[0].clone());
        }
        merged
    }
}

/// A table's embedded FDs — its vetting blocks — by their attribute
/// lists, numbered in first-seen order (hashed as attribute ids,
/// compared as slices).
#[derive(Default)]
struct EmbeddedFds {
    /// Every FD's LHS attributes, back to back.
    attrs: Vec<AttrId>,
    /// Per FD: its LHS run of `attrs` and its RHS.
    fds: Vec<(Range<usize>, AttrId)>,
    /// Per FD: does an exact plain FD of the lattice cover it?
    exact: Vec<bool>,
    by_fd: GroupBy<u32, ()>,
}

impl EmbeddedFds {
    /// The block of `lhs → rhs`, numbering it if new.
    fn block(&mut self, lhs: &[AttrId], rhs: AttrId) -> usize {
        let hash = hash_words(lhs.iter().chain([&rhs]).map(|&a| a as u64));
        let (attrs, fds) = (&self.attrs, &self.fds);
        let same = |&b: &u32| {
            let (at, b_rhs) = &fds[b as usize];
            *b_rhs == rhs && attrs[at.clone()] == *lhs
        };
        if let Some(b) = self.by_fd.probe(hash, same) {
            return b;
        }
        let at = self.attrs.len();
        self.attrs.extend_from_slice(lhs);
        self.fds.push((at..self.attrs.len(), rhs));
        self.exact.push(false);
        self.by_fd.insert_unique(hash, self.fds.len() as u32 - 1, ())
    }
}

/// Append one table's ordered constant rules to `rules` (whose
/// `lattice` range holds the table's lattice rules) as mined CFDs, and
/// assign each its vetting block. Embedded FDs are looked up by their
/// attribute lists, never by a value. A rule whose embedded FD the
/// lattice mined as an exact plain FD is dropped and counted: that FD
/// already constrains its tuples, and keeping both only bloats the
/// suite.
fn add_constant_rules(
    index: &ItemIndex<'_>,
    mined: &MinedRules,
    lattice: Range<usize>,
    rules: &mut Vec<MinedCfd>,
    stats: &mut DiscoveryStats,
) -> Blocks {
    let (schema, pool) = (index.table().schema(), index.table().pool());
    let mut fds = EmbeddedFds::default();
    for m in &rules[lattice.clone()] {
        let b = fds.block(&m.cfd.lhs, m.cfd.rhs);
        fds.exact[b] |= m.confidence == 1.0 && m.cfd.is_plain_fd();
    }
    let mut out = Blocks {
        lattice,
        constants: rules.len()..rules.len(),
        block_of: Vec::with_capacity(mined.rules.len()),
        rows: Vec::new(),
    };
    rules.reserve(mined.rules.len());
    let mut lhs: Vec<AttrId> = Vec::new();
    for rule in &mined.rules {
        let items = mined.lhs(rule);
        lhs.clear();
        lhs.extend(items.iter().map(|&id| index.item(id).0));
        let (rhs, rhs_sym) = index.item(rule.rhs);
        let b = fds.block(&lhs, rhs);
        if fds.exact[b] {
            stats.constants_subsumed += 1;
            continue;
        }
        out.block_of.push(b as u32);
        if out.rows.len() <= b {
            out.rows.resize(b + 1, 0);
        }
        out.rows[b] += 1;
        let constant = |id| PatternValue::Const(pool.value(index.item(id).1).clone());
        let row = PatternRow::new(
            items.iter().map(|&id| constant(id)).collect(),
            PatternValue::Const(pool.value(rhs_sym).clone()),
        );
        let cfd =
            Cfd { relation: schema.name().to_string(), lhs: lhs.clone(), rhs, tableau: vec![row] };
        rules.push(MinedCfd { cfd, support: rule.support, confidence: 1.0 });
    }
    out.rows.resize(fds.exact.len(), 0);
    out.constants.end = rules.len();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use revival_relation::{Schema, Type, Value};

    fn customer_table() -> Table {
        let s = Schema::builder("customer")
            .attr("cc", Type::Str)
            .attr("ac", Type::Str)
            .attr("city", Type::Str)
            .build();
        let mut t = Table::new(s);
        for (cc, ac, city) in [
            ("01", "908", "mh"),
            ("01", "908", "mh"),
            ("01", "908", "mh"),
            ("01", "212", "nyc"),
            ("01", "212", "nyc"),
            ("01", "212", "nyc"),
            ("44", "131", "edi"),
            ("44", "131", "edi"),
            ("44", "131", "edi"),
        ] {
            t.push(vec![cc.into(), ac.into(), city.into()]).unwrap();
        }
        t
    }

    #[test]
    fn profiled_discovery_is_identical_and_attributes_levels() {
        let t = customer_table();
        let job = DiscoverJob::on_table(&t, DiscoverOptions::default());
        for engine in discovery_engines() {
            let plain = engine.run(&job).unwrap();
            let (profiled, profile) = engine.run_profiled(&job).unwrap();
            let name = engine.name();
            assert_eq!(format!("{:?}", plain.rules), format!("{:?}", profiled.rules), "{name}");
            assert_eq!(format!("{:?}", plain.vetted), format!("{:?}", profiled.vetted), "{name}");
            assert_eq!(plain.stats, profiled.stats, "{name}: profiling changed the walk");
            // One row per walked lattice level, each with its
            // candidates; the job totals also count the constant-rule
            // miner and top-value truncation, so levels sum to at most
            // the job stats — and every walked level is present.
            let levels: Vec<_> = profile.constraints.iter().filter(|c| c.kind == "level").collect();
            assert!(levels.len() >= plain.stats.levels, "{name}: {profile:?}");
            let checked: u64 = levels.iter().map(|c| c.candidates_checked).sum();
            assert!(checked > 0, "{name}: no candidates attributed");
            assert!(checked <= plain.stats.candidates_checked as u64, "{name}");
            let pruned: u64 = levels.iter().map(|c| c.candidates_pruned).sum();
            assert!(pruned <= plain.stats.candidates_pruned as u64, "{name}");
            // The constant miner's levels are lit too: with them every
            // checked candidate and every support row read has a row
            // (only the top-value cut is pruned outside any level).
            let kind = |k: &'static str| profile.constraints.iter().filter(move |c| c.kind == k);
            let names: Vec<&str> = kind("itemsets").map(|c| c.name.as_str()).collect();
            assert_eq!(names, ["customer itemsets k=1", "customer itemsets k=2"], "{name}");
            let mined: u64 = kind("itemsets").map(|c| c.candidates_checked).sum();
            assert_eq!(checked + mined, plain.stats.candidates_checked as u64, "{name}");
            let dropped: u64 = kind("itemsets").map(|c| c.candidates_pruned).sum();
            assert!(pruned + dropped <= plain.stats.candidates_pruned as u64, "{name}");
            let read: u64 = kind("level").chain(kind("itemsets")).map(|c| c.rows_scanned).sum();
            assert_eq!(read, plain.stats.support_rows_touched as u64, "{name}");
            // One row per relation for the rule list and for vetting.
            let [rules] = kind("rules").collect::<Vec<_>>()[..] else {
                panic!("{name}: one `rules` row expected: {profile:?}");
            };
            assert_eq!(rules.name, "customer constant rules");
            let [vetting] = kind("vetting").collect::<Vec<_>>()[..] else {
                panic!("{name}: one `vetting` row expected: {profile:?}");
            };
            assert_eq!(vetting.rows_scanned, plain.cover.rows_in as u64, "{name}");
            assert_eq!(profile.attributed_us() + profile.overhead_us(), profile.wall_us);
            for phase in [
                "lattice",
                "constant_rules",
                "rules_order",
                "rules_convert",
                "vetting",
                "vet_merge",
                "vet_cover",
                "vet_satisfiable",
                "cind_mining",
            ] {
                assert!(
                    profile.phases.iter().any(|(p, _)| *p == phase),
                    "{name}: missing phase {phase}"
                );
            }
            assert_eq!(profile.meta_get("rules_mined"), Some(plain.rules.len() as u64));
        }
    }

    fn discovery_engines() -> Vec<Box<dyn DiscoveryEngine>> {
        vec![Box::new(SequentialDiscovery), Box::new(ParallelDiscovery)]
    }

    #[test]
    fn sequential_mines_and_vets() {
        let t = customer_table();
        let job = DiscoverJob::on_table(&t, DiscoverOptions::default());
        let d = SequentialDiscovery.run(&job).unwrap();
        assert!(!d.rules.is_empty());
        assert!(!d.vetted.is_empty());
        assert_eq!(d.satisfiable, Outcome::Yes);
        // ac → city holds exactly and must be among the mined FDs.
        let found = d.rules.iter().any(|m| {
            m.cfd.lhs == vec![1] && m.cfd.rhs == 2 && m.cfd.is_plain_fd() && m.confidence == 1.0
        });
        assert!(found, "ac → city missing: {:?}", d.rules);
        // Every exact rule holds on the data; the vetted cover does too.
        for m in &d.rules {
            if m.confidence == 1.0 {
                assert!(m.cfd.satisfied_by(&t), "exact rule violated: {:?}", m.cfd);
            }
        }
        for cfd in &d.vetted {
            assert!(cfd.satisfied_by(&t), "vetted rule violated: {cfd:?}");
        }
    }

    #[test]
    fn parallel_is_byte_identical_to_sequential() {
        let t = customer_table();
        let seq = SequentialDiscovery
            .run(&DiscoverJob::on_table(&t, DiscoverOptions::default()))
            .unwrap();
        for jobs in [1, 2, 3, 4, 7] {
            let opts = DiscoverOptions { jobs, ..DiscoverOptions::default() };
            let par = ParallelDiscovery.run(&DiscoverJob::on_table(&t, opts)).unwrap();
            assert_eq!(format!("{:?}", par.rules), format!("{:?}", seq.rules), "jobs={jobs}");
            assert_eq!(format!("{:?}", par.vetted), format!("{:?}", seq.vetted), "jobs={jobs}");
            assert_eq!(par.stats, seq.stats, "jobs={jobs}");
        }
    }

    #[test]
    fn constant_rules_subsumed_by_exact_fds_are_counted() {
        let t = customer_table();
        let d = SequentialDiscovery
            .run(&DiscoverJob::on_table(&t, DiscoverOptions::default()))
            .unwrap();
        // ac → city is exact, so CFDMiner's ac='908' ⇒ city='mh' (etc.)
        // must be dropped and accounted for.
        assert!(d.stats.constants_subsumed > 0, "stats: {:?}", d.stats);
        let redundant = d.rules.iter().any(|m| {
            m.cfd.lhs == vec![1]
                && m.cfd.rhs == 2
                && m.cfd.tableau[0].rhs != revival_constraints::PatternValue::Wildcard
        });
        assert!(!redundant, "subsumed constant rule still present: {:?}", d.rules);
    }

    #[test]
    fn catalog_jobs_lift_cinds() {
        let cd = Schema::builder("cd").attr("album", Type::Str).attr("genre", Type::Str).build();
        let book =
            Schema::builder("book").attr("title", Type::Str).attr("format", Type::Str).build();
        let mut cds = Table::new(cd);
        for i in 0..8 {
            cds.push(vec![format!("ab-{i}").into(), "a-book".into()]).unwrap();
        }
        for i in 0..6 {
            cds.push(vec![format!("pop-{i}").into(), "pop".into()]).unwrap();
        }
        let mut books = Table::new(book);
        for i in 0..8 {
            books.push(vec![format!("ab-{i}").into(), "audio".into()]).unwrap();
        }
        for i in 0..4 {
            books.push(vec![Value::str(format!("novel-{i}")), "print".into()]).unwrap();
        }
        let mut catalog = Catalog::new();
        catalog.register(cds);
        catalog.register(books);
        let job = DiscoverJob::on_catalog(&catalog, DiscoverOptions::default());
        let d = SequentialDiscovery.run(&job).unwrap();
        // The genre='a-book' lifted CIND must be discovered.
        let lifted = d.cinds.iter().any(|m| {
            m.cind.from_relation == "cd"
                && m.cind.to_relation == "book"
                && m.cind.from_conds.len() == 1
                && m.cind.from_conds[0].value == "a-book".into()
        });
        assert!(lifted, "lifted CIND missing: {:?}", d.cinds);
        // And parallel catalog discovery matches byte-for-byte.
        let opts = DiscoverOptions { jobs: 4, ..DiscoverOptions::default() };
        let par = ParallelDiscovery.run(&DiscoverJob::on_catalog(&catalog, opts)).unwrap();
        assert_eq!(format!("{:?}", par.rules), format!("{:?}", d.rules));
        assert_eq!(format!("{:?}", par.cinds), format!("{:?}", d.cinds));
    }

    #[test]
    fn engine_lookup() {
        assert_eq!(discovery_by_name("sequential").unwrap().name(), "sequential");
        assert_eq!(discovery_by_name("parallel").unwrap().name(), "parallel");
        assert!(discovery_by_name("oracle").is_err());
    }
}
