//! Hostile bytes in the two places lake deltas arrive as JSON: WAL records
//! (`dn_store::scan_wal`) and `POST /v1/mutations` bodies
//! (`MutationRequest::decode`). Either must yield deltas or a typed error,
//! and the deltas it yields must apply to the lake or fail with a typed
//! `LakeError`. Nothing may panic, and nothing may overflow a stack, which
//! aborts the process.
//!
//! The loop starts from a WAL of real batches, edits one record's payload
//! with seeded flips, inserts, deletes, JSON tokens, bracket runs and
//! truncations, and reseals the record's CRC so that only decoding can
//! object. The same edited text, wrapped as `{"deltas": …}`, is a mutation
//! body.

use dn_server::api::MutationRequest;
use dn_store::codec::crc32;
use dn_store::{scan_wal, StoreError, Wal};
use lake::delta::{LakeDelta, MutableLake};
use lake::table::TableBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Magic and version.
const WAL_HEADER: usize = 12;

fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("dn_store_hostile_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn base_lake() -> MutableLake {
    MutableLake::from_catalog(&lake::fixtures::running_example())
}

/// Real batches over [`base_lake`]: an added table, a removal beside a
/// replacement, and a two-delta batch.
fn batches() -> Vec<Vec<LakeDelta>> {
    let table = |name: &str| {
        TableBuilder::new(name)
            .column("animal", ["Jaguar", "Okapi", "Zebra"])
            .column("zone", ["North", "South", "Puma"])
            .build()
            .unwrap()
    };
    vec![
        vec![LakeDelta::new().add_table(table("T9"))],
        vec![LakeDelta::new()
            .remove_table("T2")
            .replace_value("T3", "C2", "JAGUAR", "Ocelot")],
        vec![
            LakeDelta::new().add_table(table("T2")),
            LakeDelta::new().replace_value("T9", "animal", "OKAPI", "Lynx"),
        ],
    ]
}

/// One WAL record: sequence number, epoch and JSON payload.
type Record = (u64, u64, Vec<u8>);

/// The records of a WAL holding [`batches`], written by `Wal::append`.
fn pristine_records(dir: &Path) -> Vec<Record> {
    let path = dir.join("pristine.dnlog");
    let mut wal = Wal::create(&path).unwrap();
    for (seq, batch) in batches().iter().enumerate() {
        wal.append(seq as u64 + 1, seq as u64, batch).unwrap();
    }
    let bytes = fs::read(&path).unwrap();
    let mut records = Vec::new();
    let mut pos = WAL_HEADER;
    while pos < bytes.len() {
        let word = |at: usize, width: usize| {
            let mut le = [0u8; 8];
            le[..width].copy_from_slice(&bytes[pos + at..pos + at + width]);
            u64::from_le_bytes(le)
        };
        let len = word(16, 4) as usize;
        records.push((
            word(0, 8),
            word(8, 8),
            bytes[pos + 24..pos + 24 + len].to_vec(),
        ));
        pos += 24 + len;
    }
    assert_eq!(records.len(), batches().len(), "WAL layout changed");
    records
}

/// A WAL file of `records`, each sealed with a valid CRC.
fn sealed(records: &[Record]) -> Vec<u8> {
    let mut out = dn_store::wal::WAL_MAGIC.to_vec();
    out.extend_from_slice(&dn_store::wal::WAL_VERSION.to_le_bytes());
    for (seq, epoch, payload) in records {
        let mut checked = seq.to_le_bytes().to_vec();
        checked.extend_from_slice(&epoch.to_le_bytes());
        checked.extend_from_slice(payload);
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(&epoch.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&checked).to_le_bytes());
        out.extend_from_slice(payload);
    }
    out
}

#[test]
fn nested_brackets_in_a_checksum_valid_wal_record_are_corrupt() {
    let dir = test_dir("nested");
    let path = dir.join("wal.dnlog");
    let mut records = pristine_records(&dir);
    fs::write(&path, sealed(&records)).unwrap();
    assert_eq!(scan_wal(&path).unwrap().records.len(), records.len());

    records[1].2 = "[".repeat(10_000).into_bytes();
    fs::write(&path, sealed(&records)).unwrap();
    match scan_wal(&path) {
        Err(StoreError::Corrupt { context }) => {
            assert!(context.contains("record 2"), "{context}");
            assert!(context.contains("nesting deeper than"), "{context}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// JSON-shaped fragments an edit may insert.
const TOKENS: &[&str] = &[
    "[",
    "]",
    "{",
    "}",
    "\"",
    ",",
    ":",
    "0",
    "-1",
    "4294967296",
    "1e999",
    "null",
    "true",
    "\"\"",
    "\\u0000",
    "\\ud800",
    "[]",
    "{}",
    "\"AddTable\"",
    "\"RemoveTable\"",
    "\"indices\"",
];

/// `payload` after one to four seeded edits: a flipped bit, an inserted run
/// of random bytes or of a JSON token, a run of up to 10 000 opening
/// brackets, a deleted or a duplicated run, or a truncation.
fn mutate(rng: &mut StdRng, payload: &[u8]) -> Vec<u8> {
    let mut out = payload.to_vec();
    for _ in 0..rng.gen_range(1..=4) {
        let at = rng.gen_range(0..=out.len());
        let end = (at + rng.gen_range(1..=16)).min(out.len());
        match rng.gen_range(0..9) {
            0 | 1 if at < out.len() => out[at] ^= 1 << rng.gen_range(0..8),
            2 => {
                let run: Vec<u8> = (0..rng.gen_range(1..=8))
                    .map(|_| rng.gen::<u32>() as u8)
                    .collect();
                out.splice(at..at, run);
            }
            3 | 4 => {
                let token = TOKENS[rng.gen_range(0..TOKENS.len())].as_bytes();
                out.splice(at..at, token.iter().copied());
            }
            5 => {
                let open: &[u8] = if rng.gen_bool(0.5) { b"[" } else { b"{\"k\":" };
                let run = open.repeat(rng.gen_range(1..=10_000));
                out.splice(at..at, run);
            }
            6 => {
                out.drain(at..end);
            }
            7 => {
                let copy = out[at..end].to_vec();
                out.splice(at..at, copy);
            }
            8 => out.truncate(at),
            _ => {}
        }
    }
    out
}

/// Replay `batch` onto `lake`: `Ok`, or a typed `LakeError`, never a panic.
fn apply(lake: &mut MutableLake, batch: &[LakeDelta], what: &str) {
    if catch_unwind(AssertUnwindSafe(|| lake.apply_batch(batch.iter()))).is_err() {
        panic!("{what}: apply_batch panicked");
    }
}

/// `cases` seeded edits of one WAL record each, scanned as a resealed WAL
/// and decoded as a mutation body; every batch that decodes is replayed.
fn hostile_records_and_bodies(seed: u64, cases: usize) {
    let dir = test_dir(&format!("loop_{seed:x}"));
    let path = dir.join("wal.dnlog");
    let pristine = pristine_records(&dir);
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut refused, mut decoded) = (0, 0);
    for case in 0..cases {
        let what = format!("case {case} (seed {seed:#x})");
        let mut records = pristine.clone();
        let target = rng.gen_range(0..records.len());
        records[target].2 = mutate(&mut rng, &records[target].2);
        fs::write(&path, sealed(&records)).unwrap();

        match catch_unwind(|| scan_wal(&path)) {
            Ok(Ok(scan)) => {
                decoded += 1;
                let mut lake = base_lake();
                for record in &scan.records {
                    apply(&mut lake, &record.batch, &what);
                }
            }
            Ok(Err(StoreError::Corrupt { .. })) => refused += 1,
            Ok(Err(other)) => panic!("{what}: unexpected {other:?}"),
            Err(_) => panic!("{what}: scan_wal panicked"),
        }

        let mut body = b"{\"deltas\":".to_vec();
        body.extend_from_slice(&records[target].2);
        body.push(b'}');
        match catch_unwind(|| MutationRequest::decode(&body)) {
            Ok(Ok(request)) => apply(&mut base_lake(), &request.deltas, &what),
            Ok(Err(error)) => assert_eq!(error.status, 400, "{what}: {error:?}"),
            Err(_) => panic!("{what}: MutationRequest::decode panicked"),
        }
    }
    fs::remove_dir_all(&dir).unwrap();
    assert!(
        refused > cases / 2 && decoded > 0,
        "{refused} refused and {decoded} decoded of {cases}"
    );
}

#[test]
fn hostile_wal_records_and_mutation_bodies_decode_or_refuse() {
    hostile_records_and_bodies(0x3A1, 2_000);
}

/// The long mode: `cargo test --test hostile_inputs -- --ignored
/// hostile_wal_records_and_mutation_bodies_decode_or_refuse_long`
/// (`./ci.sh` runs it in its full run).
#[test]
#[ignore = "long mode, run by ./ci.sh without --quick"]
fn hostile_wal_records_and_mutation_bodies_decode_or_refuse_long() {
    hostile_records_and_bodies(0x10_3A1, 50_000);
}
