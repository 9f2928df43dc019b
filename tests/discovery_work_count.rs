//! Work-count guard for discovery (machine-independent): support is
//! counted over row lists — Σ parent supports — never by re-reading the
//! table per candidate itemset, and a conditional probe reads the
//! classes of the candidate's partition, not the rows inside them. The
//! itemset bounds hold for any table of this shape, the probe bound for
//! this seeded one; a count that goes back to a table scan breaks them
//! by two to three orders of magnitude, one that regroups rows by 10×.

use revival::discovery::cfdminer::{mine_constant_cfds, MinerOptions};
use revival::discovery::tane::mine_lattice;
use revival::discovery::{DiscoverJob, DiscoverOptions, DiscoveryEngine, ParallelDiscovery};

/// `n` choose `k`.
fn choose(n: usize, k: usize) -> usize {
    (0..k).fold(1, |c, i| c * (n - i) / (i + 1))
}

#[test]
fn support_counting_reads_row_lists_not_the_table() {
    use revival::dirty::hospital::{attrs, generate, HospitalConfig};
    use revival::dirty::noise::{inject, NoiseConfig};
    let rows = 2_000;
    let clean = generate(&HospitalConfig { rows, ..Default::default() }).table;
    let noise = NoiseConfig::new(0.02, vec![attrs::STATE, attrs::MEASURE_NAME, attrs::HNAME], 7);
    let table = inject(&clean, &noise).dirty;
    let arity = table.schema().arity();
    let opts = DiscoverOptions { min_confidence: 0.9, ..DiscoverOptions::default() };
    assert_eq!((arity, opts.max_lhs), (8, 2), "the figures below are for this shape");

    // CFDMiner: an itemset of k items is counted by bucketing a parent's
    // rows on one more column, the itemsets over one attribute set share
    // no row, and each k-set of attributes extends by at most arity − k.
    let miner = MinerOptions { min_support: opts.min_support, max_size: opts.max_lhs };
    let (_, constants) = mine_constant_cfds(&table, &miner);
    let per_row: usize = (0..miner.max_size).map(|k| choose(arity, k) * (arity - k)).sum();
    assert_eq!(per_row, 64);
    assert!(constants.support_rows_touched > 0);
    assert!(
        constants.support_rows_touched <= rows * per_row,
        "itemset support counting read {} rows, more than {rows} × {per_row}",
        constants.support_rows_touched
    );
    // A table scan per candidate reads `candidates_checked × rows`.
    assert!(
        constants.support_rows_touched * 500 <= constants.candidates_checked * rows,
        "{} rows read for {} candidates over {rows} rows",
        constants.support_rows_touched,
        constants.candidates_checked
    );

    // The lattice: a failing candidate `X → A` probes each attribute of
    // `X` by reading one representative per stripped class of `π_X` —
    // the class errors the partition product already summed. Regrouping
    // the rows of the top values instead reads up to `rows` per
    // attribute (214 605 here, 10× past the bound), and a scan per
    // probe × `top_values` more; the planted dependencies keep the
    // classes large (16 072 reads).
    let (_, lattice) = mine_lattice(&table, &opts, 1);
    assert!(lattice.support_rows_touched > 0, "noise must make some plain FD fail: {lattice:?}");
    assert!(
        lattice.support_rows_touched * 24 <= lattice.candidates_checked * opts.max_lhs * rows,
        "conditional probes read {} class representatives for {} candidates over {rows} rows",
        lattice.support_rows_touched,
        lattice.candidates_checked
    );
    assert_eq!(mine_lattice(&table, &opts, 4).1, lattice, "the count is identical at any jobs");

    // A job reports both miners' reads, at any `jobs`.
    for jobs in [1, 4] {
        let job = DiscoverJob::on_table(&table, DiscoverOptions { jobs, ..opts.clone() });
        assert_eq!(
            ParallelDiscovery.run(&job).unwrap().stats.support_rows_touched,
            constants.support_rows_touched + lattice.support_rows_touched,
            "jobs={jobs}"
        );
    }
}
