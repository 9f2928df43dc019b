//! Property tests for the `.sdq` snapshot format: encode/decode must
//! round-trip any reachable table state — including tombstoned slots
//! and delete-then-append churn that fragments the value pool — and
//! decoding arbitrary corruption must return [`Error::Snapshot`],
//! never panic.

use proptest::prelude::*;
use revival_relation::{Error, Schema, Table, TupleId, Type, Value};

fn schema() -> Schema {
    Schema::builder("r").attr("a", Type::Str).attr("b", Type::Int).attr("c", Type::Str).build()
}

#[derive(Clone, Debug)]
enum Op {
    Push(String, i64, String),
    /// Delete the `n % live`-th live tuple (no-op on an empty table).
    Delete(usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            ("[a-e]{1,3}", -5i64..6, "[x-z]{0,2}").prop_map(|(a, b, c)| Op::Push(a, b, c)),
            ("[a-e]{1,3}", -5i64..6, "[x-z]{0,2}").prop_map(|(a, b, c)| Op::Push(a, b, c)),
            ("[a-e]{1,3}", -5i64..6, "[x-z]{0,2}").prop_map(|(a, b, c)| Op::Push(a, b, c)),
            (0usize..16).prop_map(Op::Delete),
        ],
        0..40,
    )
}

/// Replay `ops` against a fresh table. Interleaved deletes and pushes
/// leave tombstoned slots and a pool holding values no live row
/// references — exactly what snapshot compaction has to cope with.
fn build(ops: &[Op]) -> Table {
    let mut t = Table::new(schema());
    for op in ops {
        match op {
            Op::Push(a, b, c) => {
                t.push(vec![a.as_str().into(), Value::Int(*b), c.as_str().into()]).unwrap();
            }
            Op::Delete(n) => {
                let live: Vec<TupleId> = t.rows().map(|(id, _)| id).collect();
                if !live.is_empty() {
                    t.delete(live[n % live.len()]).unwrap();
                }
            }
        }
    }
    t
}

proptest! {
    /// Decoding an encoded table reproduces every live row in order.
    /// Tuple ids are compared too: tombstones are kept in the file, so
    /// slot numbering survives the round trip.
    #[test]
    fn roundtrip_preserves_live_rows(ops in arb_ops()) {
        let table = build(&ops);
        let decoded = Table::decode_snapshot(&table.snapshot_bytes()).unwrap();
        prop_assert_eq!(decoded.schema(), table.schema());
        prop_assert_eq!(decoded.len(), table.len());
        let orig: Vec<(TupleId, Vec<Value>)> = table.rows().collect();
        let back: Vec<(TupleId, Vec<Value>)> = decoded.rows().collect();
        prop_assert_eq!(back, orig);
    }

    /// A decoded snapshot is a live table, not a frozen one: appending
    /// after the round trip behaves exactly like appending to the
    /// original, even when the pool was compacted on the way out.
    #[test]
    fn roundtrip_then_append(ops in arb_ops(), a in "[a-e]{1,3}", b in -5i64..6) {
        let mut table = build(&ops);
        let mut decoded = Table::decode_snapshot(&table.snapshot_bytes()).unwrap();
        let row = vec![a.as_str().into(), Value::Int(b), "q".into()];
        let id0 = table.push(row.clone()).unwrap();
        let id1 = decoded.push(row.clone()).unwrap();
        prop_assert_eq!(id1, id0);
        prop_assert_eq!(decoded.get(id1).unwrap(), row);
        let orig: Vec<Vec<Value>> = table.rows().map(|(_, r)| r).collect();
        let back: Vec<Vec<Value>> = decoded.rows().map(|(_, r)| r).collect();
        prop_assert_eq!(back, orig);
    }

    /// Flipping any single byte either still decodes (the flip may hit
    /// slack the checksum doesn't guard, e.g. itself) or fails with a
    /// typed error — it must never panic or loop.
    #[test]
    fn corrupt_byte_never_panics(ops in arb_ops(), pos in 0usize..4096, flip in 1u8..=255) {
        let mut bytes = build(&ops).snapshot_bytes();
        let pos = pos % bytes.len();
        bytes[pos] ^= flip;
        match Table::decode_snapshot(&bytes) {
            Ok(_) | Err(Error::Snapshot { .. }) => {}
            Err(e) => prop_assert!(false, "unexpected error kind: {e:?}"),
        }
    }

    /// Every proper prefix of a valid snapshot is rejected with a typed
    /// error carrying an offset inside the file.
    #[test]
    fn truncation_is_a_typed_error(ops in arb_ops(), cut in 0usize..4096) {
        let bytes = build(&ops).snapshot_bytes();
        let cut = cut % bytes.len();
        match Table::decode_snapshot(&bytes[..cut]) {
            Err(Error::Snapshot { offset, .. }) => prop_assert!(offset <= bytes.len()),
            other => prop_assert!(false, "cut at {cut}: expected Error::Snapshot, got {other:?}"),
        }
    }
}
