//! Stream/batch parity: a [`DeltaSession`] over two relations, driven
//! through a random interleaving of inserts, deletes, updates, deltas
//! that outweigh the base, a suite swapped in place (`set_cfds`) and a
//! re-registration, must end with exactly the report every batch engine
//! returns on the session's catalog and suite — compared with `==`, in
//! the one report order (`revival::detect::report`), at jobs 1 and 4.
//!
//! The suite is shaped to sit where the maintained state differs from a
//! scan: members sharing an embedded FD (one group state, reported
//! apart), a block beside single-row members, eCFD cells on both sides,
//! and constants the data does not hold until an edit writes them — the
//! session's constant index is compiled against a pool that has not met
//! them and must notice when it does.

use proptest::prelude::*;
use rand::prelude::*;
use revival::constraints::Cfd;
use revival::detect::{engine_by_name, DetectJob};
use revival::stream::DeltaSession;
use revival_relation::{Schema, Table, TupleId, Type, Value};

const CCS: [&str; 2] = ["44", "01"];
const ZIPS: [&str; 3] = ["EH8", "07974", "G1"];
const STREETS: [&str; 3] = ["Crichton", "Mayfield", "MtnAve"];
const CITIES: [&str; 3] = ["edi", "mh", "nyc"];

/// The two relations a history edits: the same columns under two names.
const RELATIONS: [&str; 2] = ["customer", "branch"];

fn schema_of(name: &str) -> Schema {
    Schema::builder(name)
        .attr("cc", Type::Str)
        .attr("zip", Type::Str)
        .attr("street", Type::Str)
        .attr("city", Type::Str)
        .build()
}

/// Values outside the closed alphabet, per attribute: constants the
/// suite names (`33`, `ZZ9`, `High`, `gla`, `lon`) and ones it does not.
const FRESH: [[&str; 2]; 4] = [["33", "49"], ["ZZ9", "N1"], ["High", "Low"], ["gla", "lon"]];

const SUITE: &str = "customer([cc='44', zip] -> [street])\n\
     customer([cc='01', zip] -> [street])\n\
     customer([cc='01', zip='07974'] -> [city='mh'])\n\
     customer([zip] -> [city])\n\
     customer([cc='44', zip='G1'] -> [street='High'])\n\
     customer([cc, zip] -> [street]) {\n  '33', _ || _\n  '01', 'ZZ9' || 'High'\n  !='44', in ('N1', 'XX0') || !='Low'\n}\n\
     customer([cc!='01', zip in ('EH8', 'ZZ9')] -> [city in ('edi', 'gla', 'ayr')])\n\
     customer([zip='ZZ9'] -> [city!='lon'])";

/// [`SUITE`] over relation `name`.
fn suite_of(name: &str) -> Vec<Cfd> {
    let text = SUITE.replace("customer(", &format!("{name}("));
    revival_constraints::parser::parse_cfds(&text, &schema_of(name)).unwrap()
}

fn random_row(rng: &mut StdRng) -> Vec<Value> {
    vec![
        Value::from(*CCS.choose(rng).unwrap()),
        Value::from(*ZIPS.choose(rng).unwrap()),
        Value::from(*STREETS.choose(rng).unwrap()),
        Value::from(*CITIES.choose(rng).unwrap()),
    ]
}

/// One random edit of `relation`, whose live tuples are `live`.
fn random_edit(
    session: &mut DeltaSession,
    relation: &str,
    live: &mut Vec<TupleId>,
    rng: &mut StdRng,
) {
    match rng.gen_range(0..100) {
        // The delta outweighs the base: at least as many inserts as
        // there are live rows. Each such run doubles the table, so only
        // small tables get one — otherwise the case grows exponentially.
        0..=7 if live.len() < 120 => {
            let k = live.len().max(1) + rng.gen_range(0..3usize);
            for _ in 0..k {
                live.push(session.insert(relation, random_row(rng)).unwrap());
            }
        }
        8..=55 => live.push(session.insert(relation, random_row(rng)).unwrap()),
        56..=75 if !live.is_empty() => {
            let id = live.swap_remove(rng.gen_range(0..live.len()));
            session.delete(relation, id).unwrap();
        }
        _ if !live.is_empty() => {
            let id = *live.choose(rng).unwrap();
            let attr = rng.gen_range(0..4);
            // One write in three is a value the table (and so its pool)
            // may never have held.
            let value = match attr {
                _ if rng.gen_range(0..3) == 0 => *FRESH[attr].choose(rng).unwrap(),
                0 => *CCS.choose(rng).unwrap(),
                1 => *ZIPS.choose(rng).unwrap(),
                2 => *STREETS.choose(rng).unwrap(),
                _ => *CITIES.choose(rng).unwrap(),
            };
            session.update(relation, id, attr, value.into()).unwrap();
        }
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random edit histories over two relations — each op edits both,
    /// one op swaps `customer`'s suite in place for a reordered one and
    /// another re-registers `branch` — leave the session's report equal
    /// to batch detection's on its catalog and suite, across all four
    /// engines and at jobs ∈ {1, 4}.
    fn random_interleavings_match_batch_detection(
        base_rows in 0usize..30,
        nops in 1usize..120,
        seed in 0u64..1_000,
    ) {
        for jobs in [1usize, 4] {
            let mut rng = StdRng::seed_from_u64(seed ^ (jobs as u64) << 32);
            let mut session = DeltaSession::new(jobs);
            let mut live: [Vec<TupleId>; 2] = Default::default();
            for (name, live) in RELATIONS.iter().zip(&mut live) {
                let mut base = Table::new(schema_of(name));
                for _ in 0..base_rows {
                    base.push(random_row(&mut rng)).unwrap();
                }
                *live = base.tuple_ids().collect();
                session.register(base, suite_of(name)).unwrap();
            }
            let (swap_at, reregister_at) = (rng.gen_range(0..nops), rng.gen_range(0..nops));

            for op in 0..nops {
                for (name, live) in RELATIONS.iter().zip(&mut live) {
                    random_edit(&mut session, name, live, &mut rng);
                }
                if op == swap_at {
                    let mut swapped = suite_of("customer");
                    let n = swapped.len();
                    swapped.rotate_left(op % n);
                    session.set_cfds("customer", swapped).unwrap();
                }
                if op == reregister_at {
                    let table = session.table("branch").unwrap().clone();
                    session.register(table, suite_of("branch")).unwrap();
                }
            }

            let streamed = session.report().unwrap();
            prop_assert_eq!(
                streamed.len(),
                session.violation_count().unwrap(),
                "live counter diverges from the materialised report"
            );
            let job = DetectJob::on_catalog(session.catalog(), session.cfds());
            for name in ["native", "sql", "incremental", "parallel"] {
                let batch = engine_by_name(name, jobs).unwrap().run(&job).unwrap();
                prop_assert_eq!(
                    &streamed,
                    &batch,
                    "session (jobs={}) diverges from the {} engine", jobs, name
                );
            }
        }
    }
}

/// A refused write — dead tuple, attribute out of range, type mismatch —
/// leaves the maintained state exactly as it was.
#[test]
fn refused_updates_leave_count_and_report_unchanged() {
    let s = Schema::builder("customer")
        .attr("cc", Type::Str)
        .attr("zip", Type::Str)
        .attr("street", Type::Str)
        .attr("floor", Type::Int)
        .build();
    let cfds = revival_constraints::parser::parse_cfds(
        "customer([cc='44', zip] -> [street])\ncustomer([zip] -> [floor])\n\
         customer([cc='44', zip='EH8'] -> [floor='3'])",
        &s,
    )
    .unwrap();
    let mut base = Table::new(s);
    for (street, floor) in [("Crichton", 1), ("Mayfield", 2), ("Mayfield", 3)] {
        base.push(vec!["44".into(), "EH8".into(), street.into(), Value::Int(floor)]).unwrap();
    }
    let mut session = DeltaSession::new(1);
    session.register(base, cfds).unwrap();
    let row = vec!["44".into(), "EH8".into(), "x".into(), Value::Int(3)];
    let dead = session.insert("customer", row).unwrap();
    session.delete("customer", dead).unwrap();
    let before = (session.violation_count().unwrap(), session.report().unwrap());
    assert_eq!(before.0, 4, "{:?}", before.1);
    assert!(session.update("customer", dead, 2, "Crichton".into()).is_err());
    assert!(session.update("customer", TupleId(0), 9, "Crichton".into()).is_err());
    assert!(session.update("customer", TupleId(0), 3, "three".into()).is_err());
    assert!(session.update("customer", TupleId(77), 3, Value::Int(3)).is_err());
    assert_eq!((session.violation_count().unwrap(), session.report().unwrap()), before);
    // The same cells still take a well-typed write.
    session.update("customer", TupleId(0), 3, Value::Int(3)).unwrap();
    assert_eq!(session.violation_count().unwrap(), 3);
}
