//! Property-based tests over the core invariants, spanning crates.

use proptest::prelude::*;
use revival::constraints::parser::parse_cfds;
use revival::constraints::Cfd;
use revival::detect::{DetectJob, Detector, NativeEngine, SqlEngine};
use revival::relation::{Schema, Table, Type, Value};
use revival::repair::{BatchRepair, CostModel};

fn schema() -> Schema {
    Schema::builder("r").attr("a", Type::Str).attr("b", Type::Str).attr("c", Type::Str).build()
}

/// Small random tables over a tiny alphabet (dense collisions → lots of
/// FD/CFD interaction).
fn arb_table() -> impl Strategy<Value = Table> {
    prop::collection::vec((0..3u8, 0..3u8, 0..4u8), 0..24).prop_map(|rows| {
        let mut t = Table::new(schema());
        for (a, b, c) in rows {
            t.push(vec![
                Value::str(format!("a{a}")),
                Value::str(format!("b{b}")),
                Value::str(format!("c{c}")),
            ])
            .unwrap();
        }
        t
    })
}

/// A small random CFD suite over the fixed schema.
fn arb_suite() -> impl Strategy<Value = Vec<Cfd>> {
    let line = prop_oneof![
        Just("r([a] -> [b])".to_string()),
        Just("r([a, b] -> [c])".to_string()),
        (0..3u8).prop_map(|k| format!("r([a='a{k}', b] -> [c])")),
        (0..3u8, 0..4u8).prop_map(|(k, v)| format!("r([a='a{k}'] -> [c='c{v}'])")),
        (0..3u8).prop_map(|k| format!("r([b='b{k}'] -> [a])")),
    ];
    prop::collection::vec(line, 1..5)
        .prop_map(|lines| parse_cfds(&lines.join("\n"), &schema()).expect("generated suite parses"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The SQL-based detector and the native detector implicate exactly
    /// the same tuples on arbitrary inputs.
    #[test]
    fn sql_and_native_detection_agree(table in arb_table(), suite in arb_suite()) {
        let job = DetectJob::on_table(&table, &suite);
        let mut native = NativeEngine.run(&job).unwrap();
        let mut sql = SqlEngine.run(&job).unwrap();
        native.normalize();
        sql.normalize();
        prop_assert_eq!(native, sql);
    }

    /// A detection report is empty iff the satisfaction oracle agrees.
    #[test]
    fn detection_matches_satisfaction_oracle(table in arb_table(), suite in arb_suite()) {
        let report = NativeEngine.run(&DetectJob::on_table(&table, &suite)).unwrap();
        let satisfied = suite.iter().all(|c| c.satisfied_by(&table));
        prop_assert_eq!(report.is_empty(), satisfied);
    }

    /// BatchRepair always produces an instance satisfying the suite
    /// (when the suite is satisfiable over the table's active domain,
    /// which the fresh-value fallback guarantees).
    #[test]
    fn repair_always_satisfies(table in arb_table(), suite in arb_suite()) {
        let repairer = BatchRepair::new(&suite, CostModel::uniform(3));
        let (fixed, stats) = repairer.repair(&table).unwrap();
        prop_assert_eq!(stats.residual_violations, 0);
        prop_assert!(suite.iter().all(|c| c.satisfied_by(&fixed)));
        // Tuple count is preserved: repairs edit cells, never delete.
        prop_assert_eq!(fixed.len(), table.len());
    }

    /// Repair of an already-consistent table changes nothing.
    #[test]
    fn repair_of_consistent_table_is_identity(table in arb_table(), suite in arb_suite()) {
        if suite.iter().all(|c| c.satisfied_by(&table)) {
            let repairer = BatchRepair::new(&suite, CostModel::uniform(3));
            let (fixed, stats) = repairer.repair(&table).unwrap();
            prop_assert_eq!(stats.cells_changed, 0);
            prop_assert_eq!(fixed.diff_cells(&table), 0);
        }
    }

    /// Incremental detection agrees with full detection after an
    /// arbitrary run of appends — each one may grow the pool under a
    /// constant the suite names.
    #[test]
    fn incremental_agrees_with_full(table in arb_table(), suite in arb_suite()) {
        use revival::detect::IncrementalDetector;
        let mut inc = IncrementalDetector::new(suite.clone());
        let mut live = Table::new(schema());
        for (_, row) in table.rows() {
            let id = live.push(row).unwrap();
            inc.add(&live, id, None);
        }
        let mut inc_report = inc.report(&live);
        let mut full = NativeEngine.run(&DetectJob::on_table(&table, &suite)).unwrap();
        inc_report.normalize();
        full.normalize();
        prop_assert_eq!(inc_report, full);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// String distance is a normalized metric: symmetric, zero iff
    /// equal, bounded by 1.
    #[test]
    fn string_distance_is_metric_like(a in "[a-c]{0,8}", b in "[a-c]{0,8}") {
        use revival::repair::cost::string_distance;
        let d = string_distance(&a, &b);
        prop_assert!((0.0..=1.0).contains(&d));
        prop_assert!((string_distance(&b, &a) - d).abs() < 1e-12);
        prop_assert_eq!(d == 0.0, a == b);
    }

    /// CSV write→read is lossless for arbitrary string content.
    #[test]
    fn csv_roundtrip_lossless(rows in prop::collection::vec((".*", ".*"), 0..12)) {
        use revival::relation::csv;
        let schema = Schema::builder("r").attr("x", Type::Str).attr("y", Type::Str).build();
        let mut t = Table::new(schema.clone());
        for (x, y) in &rows {
            // NULL renders as the empty string, so empty strings do not
            // survive a roundtrip distinctly — normalise them out.
            let x = if x.is_empty() { "_" } else { x };
            let y = if y.is_empty() { "_" } else { y };
            t.push(vec![x.into(), y.into()]).unwrap();
        }
        let text = csv::write_table(&t);
        let back = csv::read_table(&schema, &text).unwrap();
        prop_assert_eq!(t.diff_cells(&back), 0);
        prop_assert_eq!(t.len(), back.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// `string_distance` strips common affixes and aligns the middles
    /// with a bit-vector kernel, 64 pattern symbols to a word, ASCII
    /// over bytes and anything else over `char`s; a textbook
    /// optimal-string-alignment DP over the whole strings must agree
    /// with it to the last bit — on operands sharing a prefix and suffix
    /// around two-letter middles (so transpositions land on the trim
    /// boundary), on empty and equal operands, on ASCII and on multibyte
    /// text, on middles of 63 / 64 / 65 and 127 / 128 / 129 symbols (one
    /// word full, one symbol into the next), with a transposition at
    /// every offset across a word boundary and right behind a trimmed
    /// prefix, on multibyte text longer than a word, and whatever an
    /// earlier call left in the scratch (a long pattern before a short
    /// one, bytes before `char`s and back).
    #[test]
    fn string_distance_equals_textbook_osa(
        prefix in "[abé]{0,3}",
        mid_a in "[ab]{0,5}",
        mid_b in "[ab]{0,5}",
        suffix in "[abß]{0,3}",
        wide_a in "[a-cé日]{0,7}",
        wide_b in "[a-cé日]{0,7}",
        long_a in "[abc]{127}",
        long_b in "[abc]{127}",
        long_wide in "[a-cé日]{66,130}",
        cut_a in 0usize..3,
        cut_b in 0usize..3,
        word in 1usize..3,
        swap_at in 0usize..6,
        edits in prop::collection::vec((0usize..4, 0usize..130, "[a-cé]"), 0..4),
    ) {
        use revival::repair::cost::{string_distance, DistanceScratch};
        fn textbook(a: &str, b: &str) -> f64 {
            let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
            let (n, m) = (a.len(), b.len());
            if n.max(m) == 0 {
                return 0.0;
            }
            let mut d = vec![vec![0usize; m + 1]; n + 1];
            for (i, row) in d.iter_mut().enumerate() {
                row[0] = i;
            }
            d[0] = (0..=m).collect();
            for i in 1..=n {
                for j in 1..=m {
                    let sub = usize::from(a[i - 1] != b[j - 1]);
                    d[i][j] = (d[i - 1][j] + 1).min(d[i][j - 1] + 1).min(d[i - 1][j - 1] + sub);
                    if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] {
                        d[i][j] = d[i][j].min(d[i - 2][j - 2] + 1);
                    }
                }
            }
            d[n][m] as f64 / n.max(m) as f64
        }
        let a = format!("{prefix}{mid_a}{suffix}");
        let b = format!("{prefix}{mid_b}{suffix}");
        // Middles of exactly 64·word − 1 + cut symbols: the end symbols
        // differ, so nothing trims.
        let boundary = |body: &str, cut: usize, ends: [char; 2]| {
            let body: String = body.chars().take(64 * word - 3 + cut).collect();
            format!("{}{body}{}", ends[0], ends[1])
        };
        let (edge_a, edge_b) =
            (boundary(&long_a, cut_a, ['x', 'p']), boundary(&long_b, cut_b, ['y', 'q']));
        // One word (or two) and a symbol, with a transposition at offsets
        // 64·word − 6 + swap_at and the next — across the word boundary
        // at swap_at = 5 — and one right behind the prefix the operands
        // share, the rest of the text between it and a differing end.
        let full = boundary(&long_a, 2, ['x', 'p']);
        let swapped = |at: usize, ends: [char; 2]| {
            let mut chars: Vec<char> = full.chars().collect();
            chars.swap(at, at + 1);
            (chars[0], chars[64 * word]) = (ends[0], ends[1]);
            chars.into_iter().collect::<String>()
        };
        let across = swapped(64 * word - 6 + swap_at, ['y', 'q']);
        let behind_prefix = swapped(3 + swap_at, ['x', 'q']);
        // A few edits of the long multibyte text, so the alignment is
        // neither trivial nor all substitutions.
        let mut edited: Vec<char> = long_wide.chars().collect();
        for (kind, at, with) in &edits {
            let (at, with) = (at % edited.len(), with.chars().next().unwrap());
            let next = (at + 1) % edited.len();
            match kind {
                0 => edited.insert(at, with),
                1 => drop(edited.remove(at)),
                2 => edited[at] = with,
                _ => edited.swap(at, next),
            }
        }
        let edited: String = edited.into_iter().collect();
        let empty = String::new();
        let mut scratch = DistanceScratch::default();
        for (x, y) in [
            (&a, &b),
            (&wide_a, &wide_b),
            (&edge_a, &edge_b),
            (&a, &wide_b),
            (&long_wide, &edited),
            (&mid_a, &mid_b),
            (&full, &across),
            (&long_wide, &edge_b),
            (&full, &behind_prefix),
            (&a, &a),
            (&edge_b, &empty),
            (&long_wide, &long_wide),
            (&empty, &empty),
        ] {
            let want = textbook(x, y).to_bits();
            prop_assert_eq!(string_distance(x, y).to_bits(), want, "{:?} vs {:?}", x, y);
            prop_assert_eq!(scratch.string_distance(x, y).to_bits(), want, "{:?} vs {:?}", x, y);
            prop_assert_eq!(scratch.string_distance(y, x).to_bits(), want, "{:?} vs {:?}", y, x);
        }
    }
}
