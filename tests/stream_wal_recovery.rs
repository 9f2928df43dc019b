//! Crash-recovery parity: a WAL-backed [`ShardedSession`] driven
//! through a random interleaving of register/append/delete/update/
//! repair/checkpoint, then dropped *without* shutdown or checkpoint (the in-process
//! `kill -9`), must reopen from `--state DIR` into exactly the state a
//! mirror [`DeltaSession`] reached by applying the same ops — same
//! tables cell-for-cell, same violation count, and the count must
//! match fresh batch detection on the restored tables. At 1 and 3
//! shards, so both the trivial ring and real cross-shard routing are
//! covered.

use proptest::prelude::*;
use rand::prelude::*;
use revival::detect::{DetectJob, Detector, NativeEngine};
use revival::stream::{DeltaSession, Request, ServeOptions, ShardedSession};
use revival_constraints::parser::parse_cfds;
use revival_relation::{csv, TupleId, Value};

const TABLES: [&str; 3] = ["orders", "customer", "stock"];
const CCS: [&str; 2] = ["uk", "us"];
const ZIPS: [&str; 3] = ["EH8", "07974", "G1"];
const STREETS: [&str; 3] = ["Crichton", "Mayfield", "MtnAve"];
const CITIES: [&str; 3] = ["edi", "mh", "nyc"];
const ATTRS: [&str; 4] = ["cc", "zip", "street", "city"];

/// The seed CSV every table registers with (`cc` stays `Str`: no pool
/// value parses as a number, so inference can't diverge from the
/// mirror's `Value::from(&str)` updates).
const SEED_CSV: &str = "cc,zip,street,city\nuk,EH8,Crichton,edi\n";

fn suite_for(table: &str) -> String {
    format!("{table}([cc='uk', zip] -> [street])\n{table}([zip] -> [city])")
}

fn random_row(rng: &mut StdRng) -> String {
    format!(
        "{},{},{},{}",
        CCS.choose(rng).unwrap(),
        ZIPS.choose(rng).unwrap(),
        STREETS.choose(rng).unwrap(),
        CITIES.choose(rng).unwrap(),
    )
}

fn value_for(attr: usize, rng: &mut StdRng) -> &'static str {
    match attr {
        0 => CCS.choose(rng).unwrap(),
        1 => ZIPS.choose(rng).unwrap(),
        2 => STREETS.choose(rng).unwrap(),
        _ => CITIES.choose(rng).unwrap(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Dropping the tier mid-stream loses nothing acked: the last
    /// checkpoint (the boot one, unless the op mix took another) plus the
    /// WAL past it rebuild the exact pre-crash state.
    fn random_interleavings_survive_crash_and_replay(
        nops in 1usize..80,
        seed in 0u64..1_000,
    ) {
        for shards in [1usize, 3] {
            let dir = std::env::temp_dir().join(format!(
                "revival_wal_prop_{shards}_{nops}_{seed}_{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let opts = ServeOptions {
                jobs: 1,
                shards,
                wal: true,
                state: Some(dir.clone()),
                ..ServeOptions::default()
            };
            let (tier, summary) = ShardedSession::open(&opts).unwrap();
            prop_assert_eq!(summary.relations, 0);

            // The mirror applies the same logical ops directly; the
            // tier must replay back into agreement with it.
            let mut mirror = DeltaSession::new(1);
            let mut rng = StdRng::seed_from_u64(seed ^ (shards as u64) << 32);
            let mut live: Vec<(String, u64)> = Vec::new();
            for table in TABLES {
                let resp = tier.handle(&Request::Register {
                    table: table.into(),
                    csv: SEED_CSV.into(),
                    cfds: suite_for(table),
                });
                prop_assert!(resp.is_ok(), "register {}: {:?}", table, resp);
                let parsed = csv::read_table_infer(table, SEED_CSV).unwrap();
                let cfds = parse_cfds(&suite_for(table), parsed.schema()).unwrap();
                mirror.register(parsed, cfds).unwrap();
                live.extend(mirror.table(table).unwrap().tuple_ids().map(|id| (table.to_string(), id.0)));
            }

            let mut checkpointed = false;
            for i in 0..nops {
                let table = TABLES.choose(&mut rng).unwrap().to_string();
                match rng.gen_range(0..100) {
                    0..=54 => {
                        let row = random_row(&mut rng);
                        let resp = tier.handle(&Request::Append {
                            table: table.clone(),
                            row: row.clone(),
                        });
                        prop_assert!(resp.is_ok(), "append #{}: {:?}", i, resp);
                        let values: Vec<Value> = row.split(',').map(Value::from).collect();
                        let id = mirror.insert(&table, values).unwrap();
                        // Same ops in the same order allocate the same
                        // ids on both sides — the WAL relies on that
                        // determinism to make replayed lines mean what
                        // they meant pre-crash.
                        prop_assert_eq!(resp.int("tuple"), Some(id.0 as i64));
                        live.push((table, id.0));
                    }
                    55..=74 if !live.is_empty() => {
                        let at = rng.gen_range(0..live.len());
                        let (table, tuple) = live.swap_remove(at);
                        let resp = tier.handle(&Request::Delete { table: table.clone(), tuple });
                        prop_assert!(resp.is_ok(), "delete #{}: {:?}", i, resp);
                        mirror.delete(&table, TupleId(tuple)).unwrap();
                    }
                    75..=89 if !live.is_empty() => {
                        let (table, tuple) = live.choose(&mut rng).unwrap().clone();
                        let attr = rng.gen_range(0..ATTRS.len());
                        let value = value_for(attr, &mut rng);
                        let resp = tier.handle(&Request::Update {
                            table: table.clone(),
                            tuple,
                            attr: ATTRS[attr].into(),
                            value: value.into(),
                        });
                        prop_assert!(resp.is_ok(), "update #{}: {:?}", i, resp);
                        mirror.update(&table, TupleId(tuple), attr, value.into()).unwrap();
                    }
                    // A repair edits what the baseline calls pending
                    // (or, with no base to trust, the relation): the
                    // replayed verb must find the same baseline.
                    90..=95 => {
                        let resp = tier.handle(&Request::Repair { table: table.clone() });
                        prop_assert!(resp.is_ok(), "repair #{}: {:?}", i, resp);
                        let stats = mirror.repair(&table).unwrap();
                        prop_assert_eq!(resp.int("cells_changed"), Some(stats.cells_changed as i64));
                    }
                    // A checkpoint moves state from the log into the
                    // snapshots; nothing the mirror can see changes.
                    96..=99 => {
                        prop_assert!(tier.handle(&Request::Checkpoint).is_ok());
                        checkpointed = true;
                    }
                    _ => {}
                }
            }
            let before = tier.handle(&Request::Count);
            prop_assert!(before.is_ok());
            drop(tier); // no shutdown, no checkpoint: the crash

            let (tier, summary) = ShardedSession::open(&opts).unwrap();
            prop_assert_eq!(summary.replay_errors, 0, "acked lines must re-execute");
            prop_assert_eq!(summary.torn_bytes, 0);
            prop_assert!(
                checkpointed || summary.replayed >= TABLES.len(),
                "registers live in the WAL"
            );

            let after = tier.handle(&Request::Count);
            prop_assert_eq!(
                after.int("violations"), before.int("violations"),
                "violation count must survive the crash"
            );
            prop_assert_eq!(after.int("violations"), Some(mirror.violation_count().unwrap() as i64));

            // Cell-for-cell table parity, and the count re-derived by
            // fresh batch detection over the restored tables.
            let mut batch = 0usize;
            for table in TABLES {
                let shard = tier.shard(tier.route(table));
                let session = shard.session().read().unwrap();
                let restored = session.table(table).unwrap();
                let mirrored = mirror.table(table).unwrap();
                prop_assert_eq!(restored.len(), mirrored.len(), "{} row count", table);
                prop_assert_eq!(restored.diff_cells(mirrored), 0, "{} cells", table);
                let cfds = parse_cfds(&suite_for(table), restored.schema()).unwrap();
                batch += NativeEngine.run(&DetectJob::on_table(restored, &cfds)).unwrap().len();
            }
            prop_assert_eq!(after.int("violations"), Some(batch as i64));

            drop(tier);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Group commit keeps acked-implies-durable: concurrent writers
    /// share fsyncs through a gather window, the tier is dropped
    /// mid-stream without shutdown, and a garbage half-frame is
    /// appended to the hot shard's log (the torn batch a real crash
    /// leaves). Reopen must replay every acked append cell-for-cell,
    /// tolerate the torn tail without panicking, and report it.
    fn group_commit_crash_preserves_every_acked_op(
        ops_per_client in 4usize..24,
        seed in 0u64..1_000,
        clients_idx in 0usize..2,
    ) {
        let clients = [1usize, 4][clients_idx];
        for shards in [1usize, 3] {
            let dir = std::env::temp_dir().join(format!(
                "revival_wal_group_prop_{shards}_{clients}_{ops_per_client}_{seed}_{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let opts = ServeOptions {
                jobs: 1,
                shards,
                wal: true,
                state: Some(dir.clone()),
                wal_group_max_wait_us: 200,
                ..ServeOptions::default()
            };
            let (tier, _) = ShardedSession::open(&opts).unwrap();
            let resp = tier.handle(&Request::Register {
                table: "hot".into(),
                csv: SEED_CSV.into(),
                cfds: suite_for("hot"),
            });
            prop_assert!(resp.is_ok(), "register hot: {:?}", resp);

            // Concurrent clients over one shared table: every append a
            // client sees acked goes into its ledger with the tuple id
            // the ack carried.
            let tier = std::sync::Arc::new(tier);
            let joins: Vec<_> = (0..clients)
                .map(|c| {
                    let tier = std::sync::Arc::clone(&tier);
                    std::thread::spawn(move || {
                        let mut acked: Vec<(u64, String)> = Vec::new();
                        for i in 0..ops_per_client {
                            let row = format!("c{c}i{i},EH8,Crichton,edi");
                            let resp = tier.handle(&Request::Append {
                                table: "hot".into(),
                                row: row.clone(),
                            });
                            let tuple = resp
                                .int("tuple")
                                .unwrap_or_else(|| panic!("append not acked: {resp:?}"));
                            acked.push((tuple as u64, row));
                        }
                        acked
                    })
                })
                .collect();
            let mut acked: Vec<(u64, String)> = Vec::new();
            for join in joins {
                acked.extend(join.join().expect("client thread"));
            }
            drop(tier); // no shutdown, no checkpoint: the crash

            // A real crash can also tear the final batch mid-write.
            // Fake one: a frame header claiming 200 payload bytes with
            // only 20 behind it, appended to the hot shard's log.
            let wal_path = (0..shards)
                .map(|i| dir.join(format!("wal-{i}.log")))
                .find(|p| p.metadata().map(|m| m.len() > 0).unwrap_or(false))
                .expect("one shard logged the hot table");
            {
                use std::io::Write;
                let mut file = std::fs::OpenOptions::new()
                    .append(true)
                    .open(&wal_path)
                    .unwrap();
                let mut torn = Vec::new();
                torn.extend_from_slice(&200u32.to_le_bytes());
                torn.extend_from_slice(&0u64.to_le_bytes());
                torn.extend_from_slice(&[0xAB; 20]);
                file.write_all(&torn).unwrap();
            }

            let (tier, summary) = ShardedSession::open(&opts).unwrap();
            prop_assert_eq!(summary.replay_errors, 0, "acked lines must re-execute");
            prop_assert!(summary.torn_bytes > 0, "the torn tail must be reported");
            prop_assert_eq!(
                summary.replayed,
                1 + acked.len(),
                "register + every acked append replays"
            );

            // Stage order is apply order, so replay reassigns each
            // acked tuple id to the same row.
            let shard = tier.shard(tier.route("hot"));
            let session = shard.session().read().unwrap();
            let restored = session.table("hot").unwrap();
            for (tuple, row) in &acked {
                let cells = restored.get(TupleId(*tuple)).unwrap_or_else(|e| {
                    panic!("acked tuple {tuple} lost in replay: {e}")
                });
                let expect: Vec<Value> = row.split(',').map(Value::from).collect();
                prop_assert_eq!(&cells, &expect, "tuple {} cells", tuple);
            }
            drop(session);

            drop(tier);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// Group commit engages through the tier, not only inside `GroupWal`:
/// four writers on one table must share syncs. `mutate` stages under
/// the shard write lock and commits after dropping it; if the commit
/// ever moves back under the lock, no second writer can stage while a
/// leader gathers, every sync covers one record, and this fails — which
/// the WAL's own unit test cannot see. Counted on the tier's tallies,
/// not the process-global `wal_fsync_us` that parallel tests share.
#[test]
fn concurrent_appends_share_syncs_through_the_tier() {
    let dir = std::env::temp_dir().join(format!("revival_wal_tier_group_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = ServeOptions {
        jobs: 1,
        wal: true,
        state: Some(dir.clone()),
        wal_group_max_wait_us: 20_000,
        ..ServeOptions::default()
    };
    let (tier, _) = ShardedSession::open(&opts).unwrap();
    let resp = tier.handle(&Request::Register {
        table: "hot".into(),
        csv: SEED_CSV.into(),
        cfds: suite_for("hot"),
    });
    assert!(resp.is_ok(), "register hot: {resp:?}");
    std::thread::scope(|scope| {
        for c in 0..4 {
            let tier = &tier;
            scope.spawn(move || {
                for i in 0..16 {
                    let row = format!("c{c}i{i},EH8,Crichton,edi");
                    let resp = tier.handle(&Request::Append { table: "hot".into(), row });
                    assert!(resp.is_ok(), "append not acked: {resp:?}");
                }
            });
        }
    });
    let (syncs, records) = tier.wal_group_tallies();
    assert_eq!(records, 1 + 4 * 16, "the register and every append were logged");
    assert!(syncs < records, "grouping must engage: {syncs} syncs for {records} records");
    drop(tier);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The rows of every witness below: three base tuples, then one that
/// conflicts with `t0` on `[cc='uk', zip] -> [street]`.
const WITNESS_CSV: &str =
    "cc,zip,street,city\nuk,EH8,Crichton,edi\nuk,G1,High,gla\nus,07974,MtnAve,mh\n";
const WITNESS_ROW: &str = "uk,EH8,Mayfield,edi";

fn witness_opts(dir: &std::path::Path, shards: usize, checkpoint_ops: u64) -> ServeOptions {
    ServeOptions {
        jobs: 1,
        shards,
        wal: true,
        checkpoint_ops,
        state: Some(dir.to_path_buf()),
        ..ServeOptions::default()
    }
}

type Rows = Vec<(TupleId, Vec<Value>)>;

/// `(count, rows of "customer", a fresh scan's count)`.
fn witness_state(tier: &ShardedSession) -> (Option<i64>, Rows, usize) {
    let count = tier.handle(&Request::Count).int("violations");
    let session = tier.shard(tier.route("customer")).session().read().unwrap();
    let table = session.table("customer").unwrap();
    let cfds = parse_cfds(&suite_for("customer"), table.schema()).unwrap();
    let fresh = NativeEngine.run(&DetectJob::on_table(table, &cfds)).unwrap().len();
    (count, table.rows().collect(), fresh)
}

/// An acked `repair` survives a checkpoint taken between the append and
/// the verb: the snapshot holds the dirty tuple, the log holds `repair`,
/// and the replayed verb must still know the tuple is pending — the
/// baseline is checkpointed with the table. (With the pending set kept
/// in memory only, the recovered tier counted the violation the live one
/// had repaired.) Each variant: the `checkpoint` verb or the background
/// checkpointer, one shard or three, with or without tombstones on both
/// sides of the baseline.
#[test]
fn an_acked_repair_survives_a_checkpoint_before_it() {
    for (shards, background, deletes) in
        [(1, false, false), (1, false, true), (3, false, false), (1, true, false), (3, true, true)]
    {
        let at = format!("shards {shards}, background {background}, deletes {deletes}");
        let dir = std::env::temp_dir().join(format!(
            "revival_wal_witness_{shards}_{background}_{deletes}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // Background: the log reaches the threshold at the last mutation
        // before the repair, and only there.
        let ops_before = if deletes { 5 } else { 2 };
        let opts = witness_opts(&dir, shards, if background { ops_before } else { 0 });
        let (tier, _) = ShardedSession::open(&opts).unwrap();
        let ok = |req: Request| {
            let resp = tier.handle(&req);
            assert!(resp.is_ok(), "{at}: {req:?}: {resp:?}");
            resp
        };
        let customer = || "customer".to_string();
        ok(Request::Register {
            table: customer(),
            csv: WITNESS_CSV.into(),
            cfds: suite_for("customer"),
        });
        if deletes {
            // A base tombstone, and a pending one below the dirty tuple.
            ok(Request::Delete { table: customer(), tuple: 1 });
            let gone = ok(Request::Append { table: customer(), row: "uk,G1,Low,gla".into() });
            ok(Request::Delete { table: customer(), tuple: gone.int("tuple").unwrap() as u64 });
        }
        let boot = tier.checkpoints_taken();
        let dirty = ok(Request::Append { table: customer(), row: WITNESS_ROW.into() });
        assert_eq!(dirty.int("violations"), Some(1), "{at}");
        if background {
            while tier.checkpoints_taken() == boot {
                std::thread::yield_now();
            }
        } else {
            ok(Request::Checkpoint);
        }
        let repaired = ok(Request::Repair { table: customer() });
        assert_eq!(
            (repaired.int("tuples_edited"), repaired.int("violations")),
            (Some(1), Some(0)),
            "{at}"
        );
        let live = witness_state(&tier);
        assert_eq!((live.0, live.2), (Some(0), 0), "{at}");
        drop(tier); // no shutdown: the crash

        let (tier, summary) = ShardedSession::open(&opts).unwrap();
        assert_eq!((summary.relations, summary.replayed, summary.replay_errors), (1, 1, 0), "{at}");
        assert_eq!(witness_state(&tier), live, "{at}: recovered state must equal the live one");
        drop(tier);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// What is pending survives a *clean* restart too: append, checkpoint,
/// reopen, and `repair` still edits the appended tuple instead of
/// finding it blessed as base. A state directory with no `.base` file —
/// what every build before this one wrote — opens with every restored
/// row base, as it always did; a `.base` that is not a slot number of
/// its table is a typed error.
#[test]
fn the_repair_baseline_is_part_of_the_checkpoint() {
    let dir = std::env::temp_dir().join(format!("revival_wal_baseline_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // No log: every reopen below starts from the snapshot files alone.
    let opts = ServeOptions { wal: false, ..witness_opts(&dir, 1, 0) };
    let customer = || "customer".to_string();
    {
        let (tier, _) = ShardedSession::open(&opts).unwrap();
        let register = Request::Register {
            table: customer(),
            csv: WITNESS_CSV.into(),
            cfds: suite_for("customer"),
        };
        assert!(tier.handle(&register).is_ok());
        assert!(tier
            .handle(&Request::Append { table: customer(), row: WITNESS_ROW.into() })
            .is_ok());
        assert_eq!(tier.checkpoint().unwrap(), 1);
    }
    let base = dir.join("shard-0").join("customer.base");
    assert_eq!(std::fs::read_to_string(&base).unwrap(), "3\n");
    let repair_after_reopen = || {
        let (tier, summary) = ShardedSession::open(&opts)?;
        assert_eq!((summary.relations, summary.replayed), (1, 0));
        let resp = tier.handle(&Request::Repair { table: customer() });
        Ok::<_, revival_relation::Error>((resp.int("tuples_edited"), resp.int("violations")))
    };
    // Reopening checkpoints at boot, so each probe below first puts the
    // file back the way it wants to find it.
    let saved = std::fs::read(dir.join("shard-0").join("customer.sdq")).unwrap();
    let reset = |text: Option<&str>| {
        std::fs::write(dir.join("shard-0").join("customer.sdq"), &saved).unwrap();
        match text {
            Some(text) => std::fs::write(&base, text).unwrap(),
            None => std::fs::remove_file(&base).unwrap(),
        }
    };
    for (text, what) in
        [("banana\n", "malformed repair baseline \"banana\""), ("5\n", "has 4 slot(s)")]
    {
        reset(Some(text));
        let err = repair_after_reopen().unwrap_err().to_string();
        assert!(err.contains(what), "{text:?}: {err}");
    }
    reset(None);
    assert_eq!(repair_after_reopen().unwrap(), (Some(0), Some(1)), "no `.base`: all base");
    reset(Some("3\n"));
    assert_eq!(repair_after_reopen().unwrap(), (Some(1), Some(0)), "t3 was still pending");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A mined suite means the same thing live, on disk and after a
/// restart: `discover {"register":true}` installs multi-row CFDs, the
/// checkpoint writes each as a block, and reopening — snapshot, then
/// the WAL tail past it — restores the same CFD list (not one CFD per
/// tableau row), so counts, `cfd_idx` and the report are byte-identical.
/// A `.cfds` file an older build wrote one line per row still opens to
/// what it always did: one CFD per line.
#[test]
fn a_mined_suite_survives_checkpoint_and_replay_unchanged() {
    use revival::dirty::hospital::{attrs, generate, HospitalConfig};
    use revival::dirty::noise::{inject, NoiseConfig};
    let data = generate(&HospitalConfig { rows: 300, ..Default::default() });
    let noise = NoiseConfig::new(0.03, vec![attrs::STATE, attrs::MEASURE_NAME, attrs::HNAME], 7);
    let dirty = inject(&data.table, &noise).dirty;

    let dir = std::env::temp_dir().join(format!("revival_wal_mined_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts =
        ServeOptions { jobs: 1, wal: true, state: Some(dir.clone()), ..ServeOptions::default() };
    let (tier, _) = ShardedSession::open(&opts).unwrap();
    let register = Request::Register {
        table: "hospital".into(),
        csv: csv::write_table(&dirty),
        cfds: String::new(),
    };
    assert!(tier.handle(&register).is_ok());
    let mined = tier.handle(&Request::Discover {
        table: "hospital".into(),
        min_support: 2,
        max_lhs: 2,
        confidence_pct: 90,
        register: true,
    });
    assert!(mined.is_ok(), "{mined:?}");
    assert!(tier.handle(&Request::Checkpoint).is_ok());
    // Past the checkpoint: the first row again, then its state knocked
    // off what the mined rules say it is.
    let Request::Register { csv: text, .. } = &register else { unreachable!() };
    let row = text.lines().nth(1).unwrap().to_string();
    let appended = tier.handle(&Request::Append { table: "hospital".into(), row });
    let update = Request::Update {
        table: "hospital".into(),
        tuple: appended.int("tuple").unwrap() as u64,
        attr: "state".into(),
        value: "zz".into(),
    };
    assert!(tier.handle(&update).is_ok());

    let state_of = |tier: &ShardedSession| {
        let cfds = tier.shard(tier.route("hospital")).session().read().unwrap().cfds().to_vec();
        let report = tier.handle(&Request::Report { max: 10_000 });
        (cfds, report.int("violations"), report.str("text").unwrap().to_string())
    };
    let live = state_of(&tier);
    // The tier's own schema: inferred from the CSV it registered.
    let schema =
        (tier.shard(0).session().read().unwrap()).table("hospital").unwrap().schema().clone();
    let rows: usize = live.0.iter().map(|c| c.tableau.len()).sum();
    assert_eq!(mined.int("vetted"), Some(live.0.len() as i64));
    assert!(live.0.len() * 10 < rows, "{} CFDs over {rows} rows: blocks expected", live.0.len());
    assert!(live.1 > Some(0));
    drop(tier); // no shutdown: the crash

    let (tier, summary) = ShardedSession::open(&opts).unwrap();
    assert_eq!((summary.relations, summary.replayed, summary.replay_errors), (1, 2, 0));
    assert_eq!(state_of(&tier), live, "restored suite and report must equal the live ones");
    drop(tier);

    // The same state directory with its suite in the line form.
    let path = dir.join("shard-0").join("hospital.cfds");
    assert_eq!(parse_cfds(&std::fs::read_to_string(&path).unwrap(), &schema), Ok(live.0.clone()));
    let flat: Vec<_> = (live.0.iter())
        .flat_map(|c| {
            c.tableau
                .iter()
                .map(|r| revival::constraints::Cfd { tableau: vec![r.clone()], ..c.clone() })
        })
        .collect();
    let lines: String = flat.iter().map(|c| format!("{}\n", c.display(&schema))).collect();
    assert_eq!(lines.lines().count(), rows);
    std::fs::write(&path, lines).unwrap();
    let (tier, _) = ShardedSession::open(&opts).unwrap();
    assert_eq!(state_of(&tier).0, flat);
    drop(tier);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A state directory written before `merged` left the protocol: its WAL
/// holds a `register` line carrying `"merged":true`. It opens, replays
/// the suite that line spells — two CFDs, not the one they used to fold
/// into — and counts per original CFD, as a fresh scan does.
#[test]
fn a_wal_record_carrying_merged_replays_as_the_suite_it_spells() {
    let dir = std::env::temp_dir().join(format!("revival_wal_merged_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cfds = "customer([cc='uk', zip] -> [street])\ncustomer([cc, zip] -> [street])";
    let register = Request::Register {
        table: "customer".into(),
        csv: format!("{SEED_CSV}uk,EH8,Mayfield,edi\n"),
        cfds: cfds.into(),
    };
    let old_line = register.to_line().trim_end().replacen('}', r#","merged":true}"#, 1);
    assert_eq!(Request::parse(&old_line), Ok(register));
    let append = Request::Append { table: "customer".into(), row: "us,EH8,MtnAve,edi".into() };
    {
        let mut wal = revival::stream::Wal::open(&dir.join("wal-0.log")).unwrap();
        wal.append(&old_line).unwrap();
        wal.append(append.to_line().trim_end()).unwrap();
    }
    let opts =
        ServeOptions { jobs: 1, wal: true, state: Some(dir.clone()), ..ServeOptions::default() };
    let (tier, summary) = ShardedSession::open(&opts).unwrap();
    assert_eq!((summary.replayed, summary.replay_errors), (2, 0), "{summary:?}");
    let count = tier.handle(&Request::Count).int("violations");
    let session = tier.shard(0).session().read().unwrap();
    let table = session.table("customer").unwrap();
    let suite = parse_cfds(cfds, table.schema()).unwrap();
    assert_eq!(session.cfds(), suite, "the flag folded nothing");
    let fresh = NativeEngine.run(&DetectJob::on_table(table, &suite)).unwrap();
    assert_eq!((count, fresh.len()), (Some(2), 2), "one violating group, once per CFD");
    drop(session);
    drop(tier);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A checkpoint never writes a state directory its own `open` rejects.
/// `discover {"register":true}` is the one door through which CFDs that
/// were never text enter a session: over a column constraint text cannot
/// name (`zip code`, or `zip#code`, where a comment would start) the mined
/// suite used to install, the checkpoint wrote it into `customer.cfds`,
/// and reopening failed on that file. The suite is refused instead, with
/// an error naming the attribute, and the directory reopens; a legal
/// header installs, checkpoints and reopens to the same suite and count.
/// A relation name that rule refuses is refused at `register`.
#[test]
fn a_checkpoint_never_writes_a_suite_its_open_rejects() {
    for (i, header) in ["zip code,city", "zip#code,city", "zip,city"].into_iter().enumerate() {
        let dir =
            std::env::temp_dir().join(format!("revival_wal_names_{i}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = witness_opts(&dir, 1, 0);
        let (tier, _) = ShardedSession::open(&opts).unwrap();
        let register = Request::Register {
            table: "customer".into(),
            csv: format!("{header}\nEH8,edi\nEH8,edi\nG1,gla\nG1,gla\n"),
            cfds: String::new(),
        };
        assert!(tier.handle(&register).is_ok(), "{header}");
        let mined = tier.handle(&Request::Discover {
            table: "customer".into(),
            min_support: 2,
            max_lhs: 1,
            confidence_pct: 100,
            register: true,
        });
        assert!(tier.handle(&Request::Checkpoint).is_ok(), "{header}");
        let state = |tier: &ShardedSession| {
            let cfds = tier.shard(0).session().read().unwrap().cfds().to_vec();
            (cfds, tier.handle(&Request::Count).int("violations"))
        };
        let live = state(&tier);
        drop(tier);
        let (tier, _) = ShardedSession::open(&opts)
            .unwrap_or_else(|e| panic!("{header}: the checkpoint must reopen: {e}"));
        assert_eq!(state(&tier), live, "{header}");
        let attr = header.split(',').next().unwrap();
        if attr == "zip" {
            assert!(mined.is_ok() && !live.0.is_empty(), "{header}: {mined:?}");
        } else {
            let error = mined.str("error").unwrap_or_default();
            assert!(error.contains(&format!("`{attr}`")), "{header}: {mined:?}");
            assert!(live.0.is_empty(), "{header}: nothing installed");
        }
        drop(tier);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // A relation's name is its files' name, so it obeys the same rule.
    // `../escaped` used to register, checkpoint to `<state>/escaped.sdq`
    // outside `shard-0/` (truncating the WAL), and be gone on reopen. A
    // WAL record registering it is a replay error like any refused one.
    let dir = std::env::temp_dir().join(format!("revival_wal_relnames_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let register = |table: &str| Request::Register {
        table: table.into(),
        csv: "a,b\n1,x\n1,y\n".into(),
        cfds: String::new(),
    };
    std::fs::create_dir_all(&dir).unwrap();
    revival::stream::Wal::open(&dir.join("wal-0.log"))
        .unwrap()
        .append(register("../escaped").to_line().trim_end())
        .unwrap();
    let opts = witness_opts(&dir, 1, 0);
    let (tier, summary) = ShardedSession::open(&opts).unwrap();
    assert_eq!((summary.replayed, summary.replay_errors), (0, 1), "{summary:?}");
    for bad in ["../escaped", "a/b", "a#b", "a(b", ""] {
        let refused = tier.handle(&register(bad));
        let error = refused.str("error").unwrap_or_default();
        assert!(error.contains(&format!("relation `{bad}`")), "{bad:?}: {refused:?}");
    }
    assert!(tier.handle(&register("customer")).is_ok());
    assert!(tier.handle(&Request::Checkpoint).is_ok());
    let sdq = |dir: &std::path::Path| -> Vec<std::path::PathBuf> {
        let files = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path());
        files.filter(|p| p.extension().is_some_and(|x| x == "sdq")).collect()
    };
    assert!(sdq(&dir).is_empty(), "{:?}", sdq(&dir));
    assert_eq!(sdq(&dir.join("shard-0")), [dir.join("shard-0/customer.sdq")]);
    drop(tier);
    let (tier, summary) = ShardedSession::open(&opts).unwrap();
    assert_eq!(summary.relations, 1, "{summary:?}");
    let appended = tier.handle(&Request::Append { table: "customer".into(), row: "2,z".into() });
    assert!(appended.is_ok(), "{appended:?}");
    drop(tier);
    std::fs::remove_dir_all(&dir).unwrap();
}
