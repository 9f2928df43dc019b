//! Stream/batch parity: a [`DeltaSession`] driven through a random
//! interleaving of inserts, deletes, updates and deltas that outweigh
//! the base must end with exactly the violations every batch engine
//! reports on the final table — at jobs 1 and 4. Reports are compared
//! after normalisation (the canonical order shared by all engines).

use proptest::prelude::*;
use rand::prelude::*;
use revival::detect::{engine_by_name, DetectJob};
use revival::stream::DeltaSession;
use revival_relation::{Schema, Table, TupleId, Type, Value};

const CCS: [&str; 2] = ["44", "01"];
const ZIPS: [&str; 3] = ["EH8", "07974", "G1"];
const STREETS: [&str; 3] = ["Crichton", "Mayfield", "MtnAve"];
const CITIES: [&str; 3] = ["edi", "mh", "nyc"];

fn schema() -> Schema {
    Schema::builder("customer")
        .attr("cc", Type::Str)
        .attr("zip", Type::Str)
        .attr("street", Type::Str)
        .attr("city", Type::Str)
        .build()
}

fn random_row(rng: &mut StdRng) -> Vec<Value> {
    vec![
        Value::from(*CCS.choose(rng).unwrap()),
        Value::from(*ZIPS.choose(rng).unwrap()),
        Value::from(*STREETS.choose(rng).unwrap()),
        Value::from(*CITIES.choose(rng).unwrap()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random edit interleavings leave the session byte-identical (after
    /// normalisation) to batch detection on the final table, across all
    /// four engines and at jobs ∈ {1, 4}.
    fn random_interleavings_match_batch_detection(
        base_rows in 0usize..30,
        nops in 1usize..120,
        seed in 0u64..1_000,
    ) {
        let s = schema();
        let cfds = revival_constraints::parser::parse_cfds(
            "customer([cc='44', zip] -> [street])\n\
             customer([cc='01', zip='07974'] -> [city='mh'])\n\
             customer([zip] -> [city])",
            &s,
        )
        .unwrap();

        for jobs in [1usize, 4] {
            let mut rng = StdRng::seed_from_u64(seed ^ (jobs as u64) << 32);
            let mut base = Table::new(s.clone());
            for _ in 0..base_rows {
                base.push(random_row(&mut rng)).unwrap();
            }
            let mut session = DeltaSession::new(jobs);
            session.register(base, cfds.clone()).unwrap();
            let mut live: Vec<TupleId> = session
                .table("customer")
                .unwrap()
                .tuple_ids()
                .collect();

            for _ in 0..nops {
                match rng.gen_range(0..100) {
                    // The delta outweighs the base: at least as many
                    // inserts as there are live rows. Each such run
                    // doubles the table, so only small tables get one —
                    // otherwise the case grows exponentially.
                    0..=7 if live.len() < 120 => {
                        let k = live.len().max(1) + rng.gen_range(0..3usize);
                        for _ in 0..k {
                            live.push(session.insert("customer", random_row(&mut rng)).unwrap());
                        }
                    }
                    8..=55 => {
                        let id = session
                            .insert("customer", random_row(&mut rng))
                            .unwrap();
                        live.push(id);
                    }
                    56..=75 if !live.is_empty() => {
                        let i = rng.gen_range(0..live.len());
                        let id = live.swap_remove(i);
                        session.delete("customer", id).unwrap();
                    }
                    _ if !live.is_empty() => {
                        let id = *live.choose(&mut rng).unwrap();
                        let attr = rng.gen_range(0..4);
                        let value = match attr {
                            0 => *CCS.choose(&mut rng).unwrap(),
                            1 => *ZIPS.choose(&mut rng).unwrap(),
                            2 => *STREETS.choose(&mut rng).unwrap(),
                            _ => *CITIES.choose(&mut rng).unwrap(),
                        };
                        session.update("customer", id, attr, value.into()).unwrap();
                    }
                    _ => {}
                }
            }

            let mut streamed = session.report().unwrap();
            streamed.normalize();
            prop_assert_eq!(
                streamed.len(),
                session.violation_count().unwrap(),
                "live counter diverges from the materialised report"
            );
            let final_table = session.table("customer").unwrap();
            let job = DetectJob::on_table(final_table, &cfds);
            for name in ["native", "sql", "incremental", "parallel"] {
                let mut batch = engine_by_name(name, jobs).unwrap().run(&job).unwrap();
                batch.normalize();
                prop_assert_eq!(
                    &streamed,
                    &batch,
                    "session (jobs={}) diverges from the {} engine", jobs, name
                );
            }
        }
    }
}
