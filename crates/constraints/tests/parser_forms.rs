//! The two CFD surface forms against each other and against hostile
//! bytes: `parse_cfds ∘ render = id` exactly, for arbitrary suites over
//! every cell kind and every attribute type; and whatever bytes arrive,
//! the parser answers with a suite or a typed error that names its
//! line — never a panic, and in time linear in the input.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use revival_constraints::parser::{parse_cfds, suite_to_text, write_cfd_row};
use revival_constraints::pattern::{PatternRow, PatternValue};
use revival_constraints::Cfd;
use revival_relation::{Error, Schema, Type, Value};

fn schema() -> Schema {
    Schema::builder("r")
        .attr("a", Type::Str)
        .attr("b", Type::Str)
        .attr("c_1", Type::Str)
        .attr("n", Type::Int)
        .attr("ok", Type::Bool)
        .attr("x", Type::Float)
        .build()
}

/// Embedded FDs over [`schema`]: every type on each side somewhere, one
/// repeated so a suite can hold two CFDs of one FD.
const HEADS: [(&[usize], usize); 5] =
    [(&[0, 3], 2), (&[1], 3), (&[4, 5, 0], 1), (&[2], 5), (&[0, 3], 2)];

/// Constants full of syntax characters — the `nasty` list of the
/// parser's own round-trip test, plus both forms' new delimiters.
const NASTY: [&str; 14] = [
    "o'brien", "a''b", "'", "x,y", "a#b", "EH8]", "a->b", "in (x)", "a=b", "_", "a || b", "{", "}",
    "!=z",
];

fn constant(ty: Type, code: u8) -> Value {
    match (code % 7, ty) {
        // Load-time parsing stores "" as Null, for every type.
        (0, _) => Value::Null,
        (_, Type::Str) => NASTY[code as usize % NASTY.len()].into(),
        (_, Type::Int) => Value::Int(i64::from(code) * 7919 - 400_000),
        (_, Type::Bool) => Value::Bool(code & 1 == 0),
        (_, Type::Float) => Value::Float(f64::from(code) * 0.37 - 20.0),
    }
}

/// All four cell kinds over `ty`, constants weighing most.
fn pattern(ty: Type, (kind, code): (u8, u8)) -> PatternValue {
    match kind {
        0 | 1 => PatternValue::Wildcard,
        2..=5 => PatternValue::Const(constant(ty, code)),
        6 => PatternValue::NotConst(constant(ty, code)),
        _ => PatternValue::one_of((0..=code % 3).map(|i| constant(ty, code.wrapping_add(i * 5)))),
    }
}

type RowCodes = Vec<(u8, u8)>;

fn suite_of(s: &Schema, codes: &[(usize, Vec<RowCodes>)]) -> Vec<Cfd> {
    codes
        .iter()
        .map(|(head, rows)| {
            let (lhs, rhs) = HEADS[*head];
            let ty = |a: usize| s.attribute(a).ty;
            let tableau = rows
                .iter()
                .map(|row| {
                    let cells = lhs.iter().zip(row).map(|(&a, &c)| pattern(ty(a), c)).collect();
                    PatternRow::new(cells, pattern(ty(rhs), row[3]))
                })
                .collect();
            Cfd { relation: "r".into(), lhs: lhs.to_vec(), rhs, tableau }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn render_then_parse_is_the_identity(
        // Tableaux of 0, 1 (the line form) and more rows (the block form).
        codes in prop::collection::vec(
            (0usize..HEADS.len(),
             prop::collection::vec(prop::collection::vec((0u8..9, 0u8..=255), 4..=4), 0..=4)),
            0..=8,
        ),
    ) {
        let s = schema();
        let suite = suite_of(&s, &codes);
        let text = suite_to_text(&suite, &s);
        prop_assert_eq!(parse_cfds(&text, &s), Ok(suite.clone()), "{}", text);
        // Row by row in the line form, the same suite is one CFD per row.
        let lines: String = suite
            .iter()
            .flat_map(|c| (0..c.tableau.len()).map(move |i| (c, i)))
            .fold(String::new(), |mut lines, (c, i)| {
                write_cfd_row(&mut lines, c, &s, i);
                lines.push('\n');
                lines
            });
        let split: Vec<Cfd> = suite
            .iter()
            .flat_map(|c| c.tableau.iter().map(|r| Cfd { tableau: vec![r.clone()], ..c.clone() }))
            .collect();
        prop_assert_eq!(parse_cfds(&lines, &s), Ok(split), "{}", lines);
    }
}

/// What the parser may answer on arbitrary bytes: a suite that renders
/// back to itself, an error that names a line of the input, or the
/// schema's own unknown-attribute error.
fn assert_typed_answer(doc: &str, s: &Schema) {
    match parse_cfds(doc, s) {
        Ok(suite) => assert_eq!(parse_cfds(&suite_to_text(&suite, s), s), Ok(suite), "{doc:?}"),
        Err(Error::Constraint { line, message }) => {
            assert!((1..=doc.lines().count()).contains(&line), "{message:?} for {doc:?}");
        }
        Err(Error::UnknownAttribute { .. }) => {}
        Err(other) => panic!("{other:?} for {doc:?}"),
    }
}

#[test]
fn hostile_documents_get_a_typed_error_naming_the_line() {
    let s = schema();
    let big = format!("r([a] -> [b]) {{\n  {} || _\n}}\n", "'x', ".repeat(200_000));
    assert!(big.len() > 1_000_000);
    let cases: [(&str, usize, &str); 20] = [
        ("r([a] -> [b]) {\n  'x' || 'y'\n", 1, "never closed"),
        ("# nothing open\n}\n", 2, "`}` without an open block"),
        ("r([a='x'] -> [b]) {\n}\n", 1, "`a` carries a pattern"),
        ("r([a] -> [b!='x']) {\n}\n", 1, "`b` carries a pattern"),
        ("r([a] -> [b, c_1]) {\n}\n", 1, "one RHS attribute, found 2"),
        ("r([a] -> [b]) {\nr([a] -> [c_1]) {\n}\n}\n", 2, "nested `{`"),
        ("r([a, b] -> [c_1]) {\n  'x' || 'y'\n}\n", 2, "1 LHS cell(s) but the head has 2"),
        ("r([a] -> [c_1]) {\n\n  'x', _ || 'y'\n}\n", 3, "2 LHS cell(s) but the head has 1"),
        ("r([a] -> [c_1]) {\n  'x' || 'y', 'z'\n}\n", 2, "one RHS cell"),
        ("r([a] -> [c_1]) {\n  'x' || \n}\n", 2, "one RHS cell"),
        ("r([a] -> [c_1]) {\n  'x', 'y'\n}\n", 2, "expected `lhs cells || rhs cell`"),
        ("r([a] -> [b]) {\n  'x\n  y' || 'z'\n}\n", 2, "unterminated quote"),
        ("r([a='x\n'] -> [b])\n", 1, "unterminated quote"),
        ("r([n] -> [b]) {\n  # typed by the head\n  'abc' || _\n}\n", 3, "as int for `n`"),
        ("r([a] -> [b]) {\n  in () || _\n}\n", 2, "empty `in (...)` list"),
        ("r([a\0] -> [b])\n", 1, "bad attribute `a\0`"),
        (&big, 2, "200000 LHS cell(s) but the head has 1"),
        ("r([a] -> [b]) {\n  '44' || 'a' || 'b'\n}\n", 2, "a second `||` in a row"),
        ("r([a] -> [b]) {\n  '44' || _ || _\n}\n", 2, "a second `||` in a row"),
        ("# line form\nr([a='a'||'b'] -> [b])\n", 2, "text after the closing quote"),
    ];
    let started = std::time::Instant::now();
    for (doc, line, what) in cases {
        let Err(Error::Constraint { line: at, message }) = parse_cfds(doc, &s) else {
            panic!("{:?} must be a parse error", &doc[..doc.len().min(80)]);
        };
        assert_eq!(at, line, "{message}");
        assert!(message.contains(what), "{message:?} should mention {what:?}");
        assert!(message.len() < 200, "{} bytes of message", message.len());
    }
    // A megabyte on one line is scanned, not backtracked over.
    assert!(started.elapsed().as_secs() < 20, "{:?}", started.elapsed());
    // NUL inside a quoted constant is data like any other byte.
    let nul = parse_cfds("r([a='\0'] -> [b]) # ok\n", &s).unwrap();
    assert_eq!(nul[0].tableau[0].lhs[0], PatternValue::constant("\0"));
    assert_typed_answer(&"\0".repeat(4096), &s);
}

#[test]
fn mutated_suites_never_panic() {
    // PR 14's harness shape: windows of whole lines from a well-formed
    // seed in both forms, then a few edits on top of each other.
    const ALPHABET: [&str; 24] = [
        ",", "'", "''", "(", ")", "[", "]", "->", "=", "!=", "#", " in ", "_", "||", "|", "{", "}",
        "\n", " ", "\0", "é", "a", "1", "-",
    ];
    let s = schema();
    let codes: Vec<(usize, Vec<RowCodes>)> = (0..10usize)
        .map(|i| {
            let row =
                |j: usize| (0..4).map(move |k| ((i + j + k) as u8 % 9, (i * 31 + j * 7 + k) as u8));
            (i % HEADS.len(), (0..i % 4).map(|j| row(j).collect()).collect())
        })
        .collect();
    let seed = suite_to_text(&suite_of(&s, &codes), &s);
    assert_typed_answer(&seed, &s);
    let lines: Vec<&str> = seed.split_inclusive('\n').collect();
    let mut rng = TestRng::for_case("mutated_suites_never_panic", 21);
    let mut below = |n: usize| rng.below(n as u64) as usize;
    for _ in 0..6_000 {
        let from = below(lines.len());
        let mut doc: Vec<char> =
            lines[from..(from + 1 + below(6)).min(lines.len())].concat().chars().collect();
        for _ in 0..1 + below(4) {
            let at = below(doc.len() + 1);
            let noise: Vec<char> =
                (0..1 + below(2)).flat_map(|_| ALPHABET[below(ALPHABET.len())].chars()).collect();
            match below(4) {
                0 if at < doc.len() => doc[at] = noise[0],
                1 => doc.truncate(at),
                2 => {
                    let end = (at + below(4)).min(doc.len());
                    doc.splice(at..end, noise);
                }
                _ => {
                    doc.splice(at..at, noise);
                }
            }
        }
        assert_typed_answer(&doc.into_iter().collect::<String>(), &s);
    }
    // Pure alphabet soup: every short string's worth of structure.
    for _ in 0..20_000 {
        let doc: String = (0..below(10)).map(|_| ALPHABET[below(ALPHABET.len())]).collect();
        assert_typed_answer(&doc, &s);
    }
}
