//! The full profiling loop, end to end: discover a suite from data,
//! vet it, and close the loop through detection — on clean samples the
//! discovered suite is violation-free on all four detect engines; on
//! seeded-noise data approximate discovery (`min_confidence < 1`)
//! recovers the planted dependencies; parallel discovery is
//! byte-identical to sequential; and `parse ∘ display = id` holds for
//! every mined rule and vetted CFD (the emit → detect round trip's
//! foundation).

use revival::constraints::parser::{parse_cfds, suite_to_text};
use revival::detect::{engine_by_name, DetectJob};
use revival::discovery::{
    DiscoverJob, DiscoverOptions, DiscoveryEngine, ParallelDiscovery, SequentialDiscovery,
};
use revival::relation::Table;

/// A clean hospital instance plus its schema-owning table.
fn hospital(rows: usize) -> Table {
    use revival::dirty::hospital::{generate, HospitalConfig};
    generate(&HospitalConfig { rows, ..Default::default() }).table
}

/// A seeded dirty hospital instance (noise on state/measure_name/hname).
fn dirty_hospital(rows: usize, rate: f64) -> Table {
    use revival::dirty::hospital::{attrs, generate, HospitalConfig};
    use revival::dirty::noise::{inject, NoiseConfig};
    let data = generate(&HospitalConfig { rows, ..Default::default() });
    inject(
        &data.table,
        &NoiseConfig::new(rate, vec![attrs::STATE, attrs::MEASURE_NAME, attrs::HNAME], 7),
    )
    .dirty
}

fn customer(rows: usize) -> Table {
    use revival::dirty::customer::{generate, CustomerConfig};
    generate(&CustomerConfig { rows, ..Default::default() }).table
}

#[test]
fn clean_samples_yield_violation_free_suites_on_every_engine() {
    for table in [hospital(400), customer(300)] {
        let d = SequentialDiscovery
            .run(&DiscoverJob::on_table(&table, DiscoverOptions::default()))
            .unwrap();
        assert!(!d.vetted.is_empty(), "{} must yield rules", table.schema().name());
        // Exact mining (min_confidence 1.0 default): every vetted rule
        // holds on the data it was mined from, so all four detection
        // engines agree the instance is clean under the mined suite.
        let job = DetectJob::on_table(&table, &d.vetted);
        for engine in ["native", "sql", "incremental", "parallel"] {
            let report = engine_by_name(engine, 2).unwrap().run(&job).unwrap();
            assert!(
                report.is_empty(),
                "engine {engine} found violations of a mined suite on {}: {report:?}",
                table.schema().name()
            );
        }
    }
}

#[test]
fn approximate_discovery_recovers_planted_fds_from_dirty_data() {
    use revival::dirty::hospital::attrs;
    let dirty = dirty_hospital(500, 0.02);
    // Exact discovery loses the planted rules the noise chipped…
    let exact = SequentialDiscovery
        .run(&DiscoverJob::on_table(&dirty, DiscoverOptions::default()))
        .unwrap();
    let has_plain = |d: &revival::discovery::Discovered, lhs: usize, rhs: usize| {
        d.rules.iter().any(|m| m.cfd.lhs == vec![lhs] && m.cfd.rhs == rhs && m.cfd.is_plain_fd())
    };
    assert!(
        !has_plain(&exact, attrs::ZIP, attrs::STATE),
        "noise on state must break exact zip → state"
    );
    // …approximate discovery gets them back, with honest confidence.
    let opts = DiscoverOptions { min_confidence: 0.9, ..DiscoverOptions::default() };
    let approx = SequentialDiscovery.run(&DiscoverJob::on_table(&dirty, opts)).unwrap();
    for (lhs, rhs, name) in [
        (attrs::ZIP, attrs::STATE, "zip → state"),
        (attrs::MEASURE_CODE, attrs::MEASURE_NAME, "measure_code → measure_name"),
        (attrs::PROVIDER, attrs::HNAME, "provider → hname"),
    ] {
        assert!(has_plain(&approx, lhs, rhs), "{name} not recovered at 0.9 confidence");
        let rule = approx
            .rules
            .iter()
            .find(|m| m.cfd.lhs == vec![lhs] && m.cfd.rhs == rhs && m.cfd.is_plain_fd())
            .unwrap();
        assert!(
            rule.confidence >= 0.9 && rule.confidence < 1.0,
            "{name} confidence must reflect the noise: {rule:?}"
        );
    }
}

#[test]
fn parallel_discovery_is_byte_identical_to_sequential() {
    let dirty = dirty_hospital(400, 0.03);
    let base = DiscoverOptions { min_confidence: 0.92, ..DiscoverOptions::default() };
    let seq = SequentialDiscovery.run(&DiscoverJob::on_table(&dirty, base.clone())).unwrap();
    for jobs in [1, 4] {
        let opts = DiscoverOptions { jobs, ..base.clone() };
        let par = ParallelDiscovery.run(&DiscoverJob::on_table(&dirty, opts)).unwrap();
        assert_eq!(format!("{:?}", seq.rules), format!("{:?}", par.rules), "jobs={jobs}");
        assert_eq!(format!("{:?}", seq.vetted), format!("{:?}", par.vetted), "jobs={jobs}");
        assert_eq!(seq.stats, par.stats, "jobs={jobs}");
    }
}

#[test]
fn discovery_over_tombstones_equals_discovery_over_the_compacted_table() {
    // Partitions and probes run over live slots, not positions: with
    // every 7th row deleted, slot ids and live positions part ways, and
    // the mine must still be that of the same rows stored densely.
    let mut dirty = dirty_hospital(700, 0.03);
    let doomed: Vec<_> = dirty.tuple_ids().step_by(7).collect();
    for id in doomed {
        dirty.delete(id).unwrap();
    }
    let compact = dirty.compacted();
    assert!(compact.slots() < dirty.slots(), "the table must hold tombstones");
    let base = DiscoverOptions { min_confidence: 0.92, ..DiscoverOptions::default() };
    for jobs in [1, 4] {
        let opts = DiscoverOptions { jobs, ..base.clone() };
        let holed = ParallelDiscovery.run(&DiscoverJob::on_table(&dirty, opts.clone())).unwrap();
        let dense = ParallelDiscovery.run(&DiscoverJob::on_table(&compact, opts)).unwrap();
        assert!(!dense.rules.is_empty());
        assert_eq!(format!("{:?}", holed.rules), format!("{:?}", dense.rules), "jobs={jobs}");
        assert_eq!(format!("{:?}", holed.vetted), format!("{:?}", dense.vetted), "jobs={jobs}");
        assert_eq!(holed.stats, dense.stats, "jobs={jobs}");
    }
}

#[test]
fn display_parse_roundtrip_holds_for_every_mined_rule() {
    // Property: parse ∘ display = id over mined suites, exactly — a
    // single-row mined rule is one line, a multi-row vetted CFD one
    // block, and each parses back to itself with its rows in order.
    // This is what `semandaq discover --emit` leans on.
    for table in [hospital(300), dirty_hospital(300, 0.03), customer(250)] {
        let opts = DiscoverOptions { min_confidence: 0.9, ..DiscoverOptions::default() };
        let d = SequentialDiscovery.run(&DiscoverJob::on_table(&table, opts)).unwrap();
        let schema = table.schema();
        for cfd in d.rules.iter().map(|m| &m.cfd).chain(&d.vetted) {
            let text = cfd.display(schema).to_string();
            let back =
                parse_cfds(&text, schema).unwrap_or_else(|e| panic!("`{text}` must re-parse: {e}"));
            assert_eq!(back, vec![cfd.clone()], "round trip: {text}");
        }
    }
}

#[test]
fn detect_over_the_emitted_suite_equals_detect_over_the_vetted_one() {
    // The `--emit` file is the vetted suite: detection over its text
    // reports what detection over `Discovered::vetted` in memory does —
    // same violations, same CFD and row indices — at any `jobs`.
    let dirty = dirty_hospital(400, 0.03);
    let opts = DiscoverOptions { min_confidence: 0.9, ..DiscoverOptions::default() };
    let d = SequentialDiscovery.run(&DiscoverJob::on_table(&dirty, opts)).unwrap();
    assert!(d.vetted.iter().any(|c| c.tableau.len() > 1), "the suite must hold blocks");
    let emitted = parse_cfds(&suite_to_text(&d.vetted, dirty.schema()), dirty.schema()).unwrap();
    for jobs in [1, 4] {
        let engine = engine_by_name("parallel", jobs).unwrap();
        let from_file = engine.run(&DetectJob::on_table(&dirty, &emitted)).unwrap();
        let in_memory = engine.run(&DetectJob::on_table(&dirty, &d.vetted)).unwrap();
        assert!(!in_memory.is_empty(), "dirty data must violate its approximate suite");
        assert_eq!(from_file, in_memory, "jobs={jobs}");
    }
}

/// FNV-1a 64 — enough to pin a long rendering without committing it.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

#[test]
fn mined_output_is_pinned_to_the_recorded_golden() {
    // `(len, FNV-1a 64)` of the mined rule list and of the rendered
    // vetted suite, plus the search accounting. The rule list and the
    // accounting were recorded from the tree *before* discovery moved
    // to row lists (PR 18) — an optimisation of the miners must
    // reproduce them to the byte at any `jobs`. The vetted text was
    // re-recorded when multi-row CFDs began rendering as blocks (PR 21,
    // same `d.vetted`, which the exact re-parse below ties it to); its
    // line-form pins were, in case order, (153 868, 0xd07996b0f80edafd),
    // (191 887, 0x0f9e513134597f62), (8 795, 0xbc04a4ac5dd4f5b5),
    // (19 742, 0x03e0fb82e2779546), (84 314, 0x63b7f4e46680f910).
    // When CFDMiner began emitting only left-reduced constant rules,
    // the rule, vetted and `constants_subsumed` pins were derived on
    // the tree before it: its rule list filtered by the brute-force
    // definition (every proper non-empty LHS subset matches a row with
    // another RHS value), vetted as `run_job` vets, rendered, hashed.
    // The pins they replace were, in case order, rules (392 989,
    // 0xd9d1b21d10030109), (522 860, 0xe2c241cb7c195452), (38 357,
    // 0xa1a389b5364acbbc), (82 709, 0xbda2978e1ed2e9ac), (221 051,
    // 0xbb5799cde485bf05); vetted (93 010, 0xa64d07adb5e5fb5b),
    // (111 536, 0xc351dadc9a4306b0), (5 752, 0x89054232c87dfb58),
    // (11 586, 0x0fb814c2d1ba71b4), (52 716, 0xbd0fd6b4dbc9e41c);
    // constants_subsumed 272, 272, 89, 89, 212.
    type Pin = (usize, u64);
    // (candidates_checked, candidates_pruned, lattice_truncated, levels,
    //  constants_subsumed, constants_not_minimal, cover_implication_skipped)
    type Stats = (usize, usize, bool, usize, usize, usize, bool);
    let cases: [(&str, Table, f64, usize, Pin, Pin, Stats); 5] = [
        (
            "hospital400@0.9",
            dirty_hospital(400, 0.03),
            0.9,
            2,
            (170_201, 0x33cd_af48_3837_3fa4),
            (39_154, 0x8a6c_6611_508f_cb16),
            (19_236, 18_433, true, 2, 272, 1_009, true),
        ),
        (
            "hospital400@1.0",
            dirty_hospital(400, 0.03),
            1.0,
            2,
            (300_072, 0x774a_1365_ee00_e223),
            (58_139, 0x5269_840c_06be_1c5d),
            (19_295, 18_410, true, 2, 272, 1_009, true),
        ),
        (
            "customer250@0.9",
            customer(250),
            0.9,
            2,
            (30_449, 0x27c5_8292_e81d_ee97),
            (4_465, 0x496d_4c5c_6066_e85c),
            (4_893, 5_592, true, 2, 82, 47, true),
        ),
        (
            "customer250@1.0",
            customer(250),
            1.0,
            2,
            (74_801, 0xaaba_0b6d_696e_77a7),
            (10_299, 0x361e_e4e5_4e66_3898),
            (4_893, 5_592, true, 2, 82, 47, true),
        ),
        (
            "hospital300@0.9/lhs3",
            dirty_hospital(300, 0.03),
            0.9,
            3,
            (104_594, 0x1289_d997_719c_14f3),
            (24_229, 0x9b5e_b382_49d5_bf51),
            (51_483, 49_985, true, 3, 212, 532, true),
        ),
    ];
    for (name, table, min_confidence, max_lhs, rules_pin, vetted_pin, stats_pin) in cases {
        for jobs in [1, 4] {
            let opts =
                DiscoverOptions { min_confidence, max_lhs, jobs, ..DiscoverOptions::default() };
            let d = ParallelDiscovery.run(&DiscoverJob::on_table(&table, opts)).unwrap();
            let rules = format!("{:?}", d.rules);
            let vetted = suite_to_text(&d.vetted, table.schema());
            let s = &d.stats;
            let stats = (
                s.candidates_checked,
                s.candidates_pruned,
                s.lattice_truncated,
                s.levels,
                s.constants_subsumed,
                s.constants_not_minimal,
                s.cover_implication_skipped,
            );
            assert_eq!((rules.len(), fnv1a(&rules)), rules_pin, "{name} jobs={jobs}: rules");
            assert_eq!((vetted.len(), fnv1a(&vetted)), vetted_pin, "{name} jobs={jobs}: vetted");
            assert_eq!(stats, stats_pin, "{name} jobs={jobs}: stats");
            assert_eq!(parse_cfds(&vetted, table.schema()).unwrap(), d.vetted, "{name}: re-parse");
        }
    }
}
