//! Corruption hardening: every malformed input must produce a typed
//! [`StoreError`] — never a panic, never a half-loaded lake.
//!
//! The cases mirror the ways files actually rot: truncation at arbitrary
//! points (torn writes, full disks), single flipped bytes in every section
//! (bit rot, bad sectors), foreign files (bad magic), files written by
//! another release (unsupported version), and checksum-valid sections
//! that lie: forged slots and caches, and seeded edits resealed past the
//! CRC.
//!
//! Temp directories live under `CARGO_TARGET_TMPDIR` and are removed at
//! the end of each test; CI's tempdir-hygiene gate fails if anything is
//! left behind.

use dn_store::codec::{put_u32_vec, ByteWriter};
use dn_store::snapshot::{
    decode_snapshot_threaded, encode_snapshot_threaded, section_table, Manifest, PersistedState,
};
use dn_store::{scan_wal, Store, StoreError, Wal};
use domainnet::{DomainNet, DomainNetBuilder, Measure};
use lake::delta::{LakeDelta, LakeView, MutableLake};
use lake::table::TableBuilder;
use lake::value::ValueId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::path::{Path, PathBuf};

fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("dn_store_corruption_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn encode(lake: &MutableLake, net: &DomainNet, manifest: &Manifest) -> Vec<u8> {
    encode_snapshot_threaded(lake, net, manifest, 1)
}

fn decode(bytes: &[u8]) -> Result<PersistedState, StoreError> {
    decode_snapshot_threaded(bytes, 1)
}

fn sample_engine() -> (MutableLake, DomainNet, Vec<Measure>) {
    let mut lake = MutableLake::from_catalog(&lake::fixtures::running_example());
    let mut net = DomainNetBuilder::new().build(&lake);
    let measures = vec![Measure::lcc(), Measure::exact_bc()];
    net.warm_rankings(&measures);
    // A mutation so a removed slot and patched caches are both
    // present in the encoded state.
    let effects = lake
        .apply(
            &LakeDelta::new().remove_table("T2").add_table(
                TableBuilder::new("T9")
                    .column("animal", ["Jaguar", "Okapi", "Zebra"])
                    .build()
                    .unwrap(),
            ),
        )
        .unwrap();
    net.apply_delta(&lake, &effects).unwrap();
    net.warm_rankings(&measures);
    (lake, net, measures)
}

fn sample_snapshot_bytes() -> Vec<u8> {
    let (lake, net, measures) = sample_engine();
    let manifest = Manifest {
        last_seq: 4,
        epoch: 2,
        measures,
    };
    encode(&lake, &net, &manifest)
}

#[test]
fn pristine_snapshot_decodes() {
    let bytes = sample_snapshot_bytes();
    decode(&bytes).expect("the uncorrupted baseline must load");
}

#[test]
fn bad_magic_is_typed() {
    let mut bytes = sample_snapshot_bytes();
    bytes[..8].copy_from_slice(b"NOTASNAP");
    match decode(&bytes) {
        Err(StoreError::BadMagic { found, .. }) => assert_eq!(found, b"NOTASNAP"),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn future_format_version_is_typed() {
    // A later release's file, format 6 (each live column as a dictionary
    // and row indices), format 5 (which also stored the net's delta
    // generation), format 4 (the net's three node-id maps besides), format
    // 3 (each attribute's slot, liveness and value set too), format 2 (the
    // graph as well) and format 1 (component labels and rankings on top):
    // one reader, one typed refusal.
    for version in [99u32, 6, 5, 4, 3, 2, 1] {
        let mut bytes = sample_snapshot_bytes();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        match decode(&bytes) {
            Err(StoreError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, version);
                assert_eq!(supported, 7);
                assert_eq!(supported, dn_store::FORMAT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }
}

/// `bytes` with section `name`'s payload replaced: the new payload is
/// appended and the section's offset, length and CRC in the section table
/// re-derived, so only the structural validation can object. The old
/// payload stays behind, unreferenced.
fn with_payload(bytes: &[u8], name: &str, payload: &[u8]) -> Vec<u8> {
    let index = section_table(bytes)
        .unwrap()
        .iter()
        .position(|s| s.name == name)
        .unwrap();
    let mut forged = bytes.to_vec();
    let offset = forged.len() as u64;
    forged.extend_from_slice(payload);
    // magic, version, count, then { id u32, offset u64, len u64, crc u32 }.
    let entry = 16 + index * 24;
    forged[entry + 4..entry + 12].copy_from_slice(&offset.to_le_bytes());
    forged[entry + 12..entry + 20].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    forged[entry + 20..entry + 24].copy_from_slice(&dn_store::codec::crc32(payload).to_le_bytes());
    forged
}

#[test]
fn forged_cardinalities_are_corrupt_not_served() {
    // The net section ends with the cardinality vector (count, then one
    // u64 per value node). Rankings are derived from it on recovery, so a
    // checksum-valid section that lies about it must not load.
    let (lake, net, measures) = sample_engine();
    let manifest = Manifest {
        last_seq: 4,
        epoch: 2,
        measures,
    };
    let bytes = encode(&lake, &net, &manifest);
    let section = *section_table(&bytes)
        .unwrap()
        .iter()
        .find(|s| s.name == "net")
        .unwrap();
    let payload = &bytes[section.offset..section.offset + section.len];
    let values = net.graph().value_count();
    let vector = payload.len() - 8 * values;
    assert_eq!(
        payload[vector - 8..vector],
        (values as u64).to_le_bytes(),
        "net section layout changed"
    );
    let expect_corrupt =
        |payload: &[u8], what: &str| match decode(&with_payload(&bytes, "net", payload)) {
            Err(StoreError::Corrupt { context }) => {
                assert!(context.contains(what), "{context}")
            }
            other => panic!("expected Corrupt ({what}), got {other:?}"),
        };

    // One entry short of the value nodes.
    let mut short = payload[..payload.len() - 8].to_vec();
    short[vector - 8..vector].copy_from_slice(&(values as u64 - 1).to_le_bytes());
    expect_corrupt(&short, "cardinalities cover");

    // The resealing itself is sound: the untouched payload still loads.
    decode(&with_payload(&bytes, "net", payload)).unwrap();
}

#[test]
fn ill_shaped_tables_are_corrupt_not_served() {
    // The lake section holds each column as its name and store ids, so a
    // checksum-valid snapshot can still hold a ragged table or name a
    // column twice; rows() and save_dir would then pad or truncate it. A
    // lake refuses such a table, so the lake section is forged.
    let table = TableBuilder::new("forged")
        .column("col_one", ["Jaguar", "Puma"])
        .column("col_two", ["Okapi", "Okapi"])
        .build()
        .unwrap();
    let lake = MutableLake::from_tables([table]).unwrap();
    let net = DomainNetBuilder::new().build(&lake);
    let manifest = Manifest {
        last_seq: 1,
        epoch: 1,
        measures: Vec::new(),
    };
    let bytes = encode(&lake, &net, &manifest);
    let payload = section_bytes(&bytes, "lake");
    // A column: its name, then its cells' store ids (Okapi is text 2).
    let column = |name: &str, cells: &[u32]| {
        let mut w = ByteWriter::new();
        w.put_str(name);
        put_u32_vec(&mut w, cells);
        w.into_inner()
    };
    let replaced = |from: &[u8], to: &[u8]| {
        let at = payload
            .windows(from.len())
            .position(|w| w == from)
            .expect("lake section layout changed");
        [&payload[..at], to, &payload[at + from.len()..]].concat()
    };
    // `col_two` loses a row; or it is renamed `col_one`.
    let ragged = replaced(&column("col_two", &[2, 2]), &column("col_two", &[2]));
    let twice = replaced(&column("col_two", &[2, 2]), &column("col_one", &[2, 2]));
    for (forged, what) in [
        (ragged, "column 'col_two' has 1 rows but the table has 2"),
        (twice, "declares column 'col_one' more than once"),
    ] {
        match decode(&with_payload(&bytes, "lake", &forged)) {
            Err(StoreError::Corrupt { context }) => assert!(context.contains(what), "{context}"),
            other => panic!("expected Corrupt ({what}), got {other:?}"),
        }
    }

    // The forging itself is sound: the unchanged section still loads.
    decode(&with_payload(&bytes, "lake", payload)).unwrap();
}

/// The snapshot of a lake whose first slot is a removed table, then the
/// live tables `kept` and `also`.
fn removed_slot_snapshot() -> Vec<u8> {
    let table = |name: &str, column: &str, cells: [&str; 2]| {
        TableBuilder::new(name)
            .column(column, cells)
            .build()
            .unwrap()
    };
    let mut lake = MutableLake::from_tables([
        table("gone", "c_gone", ["Jaguar", "Lynx"]),
        table("kept", "c_kept", ["Jaguar", "Okapi"]),
        table("also", "c_also", ["Okapi", "Puma"]),
    ])
    .unwrap();
    lake.apply(&LakeDelta::new().remove_table("gone")).unwrap();
    let net = DomainNetBuilder::new().build(&lake);
    let manifest = Manifest {
        last_seq: 1,
        epoch: 1,
        measures: Vec::new(),
    };
    encode(&lake, &net, &manifest)
}

fn section_bytes<'a>(bytes: &'a [u8], name: &str) -> &'a [u8] {
    let section = *section_table(bytes)
        .unwrap()
        .iter()
        .find(|s| s.name == name)
        .unwrap();
    &bytes[section.offset..section.offset + section.len]
}

#[test]
fn forged_lake_slots_are_corrupt_not_served() {
    // The lake section is the live texts, the interner and the table
    // slots; every index is derived from them in one pass over the cells,
    // so what a checksum-valid section can still lie about must be refused
    // there. The live texts are Jaguar, Okapi and Puma (0, 1, 2, in the
    // order kept's and also's cells first use them); gone's Lynx is dead
    // and not written.
    let bytes = removed_slot_snapshot();
    let payload = section_bytes(&bytes, "lake");
    let encoded = |text: &str| {
        let mut w = ByteWriter::new();
        w.put_str(text);
        w.into_inner()
    };
    // A live slot of one column: its name, the column's name and cells.
    let live = |table: &str, columns: &[(&str, &[u32])]| {
        let mut w = ByteWriter::new();
        w.put_bool(true);
        w.put_str(table);
        w.put_u32(columns.len() as u32);
        for (name, cells) in columns {
            w.put_str(name);
            put_u32_vec(&mut w, cells);
        }
        w.into_inner()
    };
    let replaced = |from: &[u8], to: &[u8]| {
        let at = payload
            .windows(from.len())
            .position(|w| w == from)
            .expect("lake section layout changed");
        [&payload[..at], to, &payload[at + from.len()..]].concat()
    };
    assert!(
        payload.starts_with(&[&3u64.to_le_bytes()[..], &encoded("Jaguar")].concat()),
        "lake section layout changed"
    );
    // Slot count, then slot 0: removed, with its column count.
    let removed = [&3u64.to_le_bytes()[..], &[0, 1, 0, 0, 0, 0]].concat();
    let huge = [&3u64.to_le_bytes()[..], &[0], &u32::MAX.to_le_bytes(), &[0]].concat();
    let kept = live("kept", &[("c_kept", &[0, 1])]);

    for (forged, what) in [
        // A removed slot's column count without the zero bytes that back
        // it: refused before anything is allocated.
        (
            replaced(&removed, &huge),
            "a removed slot claims 4294967295 attributes",
        ),
        // The interner's OKAPI renamed: a text normalizes to a value it
        // lacks.
        (
            replaced(&encoded("OKAPI"), &encoded("OKAPO")),
            "text \"Okapi\" normalizes to \"OKAPI\", missing from the interner",
        ),
        // The interner's PUMA renamed LYNX, which it holds already: the
        // removed table's values keep their ids.
        (
            replaced(&encoded("PUMA"), &encoded("LYNX")),
            "interner value",
        ),
        // Two live slots under one name.
        (
            replaced(&encoded("also"), &encoded("kept")),
            "a table named 'kept' already exists",
        ),
        // A text written twice: Puma renamed Okapi.
        (
            replaced(&encoded("Puma"), &encoded("Okapi")),
            "text 2 duplicates text 1",
        ),
        // A store id equal to the text count.
        (
            replaced(&kept, &live("kept", &[("c_kept", &[0, 3])])),
            "column 'kept.c_kept' names store id 3, past the 3 texts",
        ),
        // A live slot whose second column is a row short.
        (
            replaced(
                &kept,
                &live("kept", &[("c_kept", &[0, 1]), ("c_more", &[2])]),
            ),
            "column 'c_more' has 1 rows but the table has 2",
        ),
    ] {
        match decode(&with_payload(&bytes, "lake", &forged)) {
            Err(StoreError::Corrupt { context }) => assert!(context.contains(what), "{context}"),
            other => panic!("expected Corrupt ({what}), got {other:?}"),
        }
    }

    // The forging itself is sound: the unchanged section still loads.
    decode(&with_payload(&bytes, "lake", payload)).unwrap();
}

#[test]
fn a_lake_with_removed_and_readded_tables_round_trips_byte_identically() {
    // Every index of the decoded lake is derived by the replay, so the ids
    // (values, attributes, dead attribute slots) must come out as the writer
    // had them.
    let (mut lake, mut net, measures) = sample_engine();
    for delta in [
        LakeDelta::new().remove_table("T9").remove_table("T1"),
        LakeDelta::new().add_table(
            TableBuilder::new("T2")
                .column("name", ["Lemur", "Okapi"])
                .column("zone", ["North", "Jaguar"])
                .build()
                .unwrap(),
        ),
        LakeDelta::new().replace_value("T3", "C2", "Jaguar", "Ocelot"),
    ] {
        let effects = lake.apply(&delta).unwrap();
        net.apply_delta(&lake, &effects).unwrap();
    }
    net.warm_rankings(&measures);
    let manifest = Manifest {
        last_seq: 9,
        epoch: 5,
        measures,
    };
    let bytes = encode(&lake, &net, &manifest);
    let restored = decode(&bytes).unwrap();
    assert_eq!(
        encode(&restored.lake, &restored.net, &restored.manifest),
        bytes
    );
    assert_eq!(restored.lake.attribute_count(), lake.attribute_count());
    assert_eq!(restored.lake.value_count(), lake.value_count());
    for attr in (0..lake.attribute_count() as u32).map(lake::AttrId) {
        assert_eq!(restored.lake.is_attr_live(attr), lake.is_attr_live(attr));
        assert_eq!(
            restored.lake.attribute_values(attr),
            lake.attribute_values(attr)
        );
    }
    for vid in (0..lake.value_count() as u32).map(ValueId) {
        assert_eq!(
            LakeView::value_attributes(&restored.lake, vid),
            LakeView::value_attributes(&lake, vid),
            "value {vid:?}"
        );
    }
}

/// `payload` after one to four seeded edits: a flipped bit, an inserted or
/// a deleted run of bytes, a word overwritten with a length-shaped value,
/// or a truncation.
fn mutate(rng: &mut StdRng, payload: &[u8]) -> Vec<u8> {
    let mut out = payload.to_vec();
    for _ in 0..rng.gen_range(1..=4) {
        let at = rng.gen_range(0..=out.len());
        let width = if rng.gen_bool(0.5) { 4 } else { 8 };
        match rng.gen_range(0..8) {
            0..=2 if at < out.len() => out[at] ^= 1 << rng.gen_range(0..8),
            3 => {
                let run: Vec<u8> = (0..rng.gen_range(1..=8))
                    .map(|_| rng.gen::<u32>() as u8)
                    .collect();
                out.splice(at..at, run);
            }
            4 => {
                let end = (at + rng.gen_range(1..=8)).min(out.len());
                out.drain(at..end);
            }
            5 | 6 if at + width <= out.len() => {
                let words = [0, 1, 2, u64::from(u32::MAX), u64::MAX, out.len() as u64];
                let word = words[rng.gen_range(0..words.len())].to_le_bytes();
                out[at..at + width].copy_from_slice(&word[..width]);
            }
            7 => out.truncate(at),
            _ => {}
        }
    }
    out
}

/// `cases` seeded mutations of the lake or the net payload of the sample
/// snapshot, each resealed by [`with_payload`] so the CRC passes: decode
/// must load or refuse with a typed structural error, and never panic. An
/// edit that writes 0 after a measure's LCC tag names the retired
/// value-neighbour reading, which is refused by a type of its own.
fn hostile_sections_decode_or_refuse(seed: u64, cases: usize) {
    let bytes = sample_snapshot_bytes();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut refused = 0;
    for case in 0..cases {
        let name = if rng.gen_bool(0.5) { "lake" } else { "net" };
        let forged = with_payload(&bytes, name, &mutate(&mut rng, section_bytes(&bytes, name)));
        match std::panic::catch_unwind(|| decode(&forged)) {
            Ok(Ok(_)) => {}
            Ok(Err(
                StoreError::Corrupt { .. }
                | StoreError::Truncated { .. }
                | StoreError::RetiredLccReading,
            )) => refused += 1,
            Ok(Err(other)) => panic!("case {case} ({name}, seed {seed}): unexpected {other:?}"),
            Err(_) => panic!("case {case} ({name}, seed {seed}): decode panicked"),
        }
    }
    assert!(refused > cases / 2, "only {refused} of {cases} refused");
}

#[test]
fn hostile_snapshot_sections_decode_or_refuse() {
    hostile_sections_decode_or_refuse(0x5A4, 2_000);
}

/// The long mode: `cargo test -p dn-store --test corruption -- --ignored
/// hostile_snapshot_sections_decode_or_refuse_long` (`./ci.sh` runs it in
/// its full run).
#[test]
#[ignore = "long mode, run by ./ci.sh without --quick"]
fn hostile_snapshot_sections_decode_or_refuse_long() {
    hostile_sections_decode_or_refuse(0x10_5A4, 50_000);
}

#[test]
fn truncation_at_every_region_is_typed_and_panic_free() {
    let bytes = sample_snapshot_bytes();
    let sections = section_table(&bytes).unwrap();
    // Cut points: inside the magic, the version, the section table, at
    // each section boundary, mid-payload of each section, and one byte
    // short of complete.
    let mut cuts = vec![0, 3, 8, 10, 13, 40, bytes.len() - 1];
    for s in &sections {
        cuts.push(s.offset);
        cuts.push(s.offset + s.len / 2);
    }
    for cut in cuts {
        let truncated = &bytes[..cut];
        let err = decode(truncated).expect_err("truncated file must not load");
        assert!(
            matches!(
                err,
                StoreError::Truncated { .. }
                    | StoreError::BadMagic { .. }
                    | StoreError::SectionCrc { .. }
                    | StoreError::Corrupt { .. }
            ),
            "cut at {cut}: unexpected error {err:?}"
        );
    }
}

#[test]
fn flipped_byte_in_each_section_fails_that_sections_crc() {
    let bytes = sample_snapshot_bytes();
    let sections = section_table(&bytes).unwrap();
    assert_eq!(sections.len(), 3);
    for section in &sections {
        for probe in [0, section.len / 2, section.len - 1] {
            let mut corrupted = bytes.clone();
            corrupted[section.offset + probe] ^= 0x40;
            match decode(&corrupted) {
                Err(StoreError::SectionCrc { section: name }) => {
                    assert_eq!(name, section.name, "flip at {probe} of {}", section.name)
                }
                other => panic!(
                    "{} flip at {probe}: expected SectionCrc, got {other:?}",
                    section.name
                ),
            }
        }
    }
    // And the original still decodes — the corruption probes copied.
    decode(&bytes).unwrap();
}

#[test]
fn flipped_bytes_in_the_header_never_panic() {
    let bytes = sample_snapshot_bytes();
    let header_end = section_table(&bytes).unwrap()[0].offset;
    for pos in 0..header_end {
        let mut corrupted = bytes.clone();
        corrupted[pos] ^= 0x01;
        // Any typed error (or, for a benign flip such as a section id that
        // still resolves, even success) is acceptable; panicking is not.
        let _ = decode(&corrupted);
    }
}

#[test]
fn read_snapshot_propagates_io_and_corruption_errors() {
    // Recovery reads the only snapshot file of a store: one that cannot be
    // read (a directory in its place) is an I/O error, and garbage is a
    // foreign file.
    let dir = test_dir("read");
    let snapshot = dir.join(format!("snapshot-{:020}.dnsnap", 0));
    fs::create_dir(&snapshot).unwrap();
    assert!(matches!(
        Store::recover(&dir).unwrap_err(),
        StoreError::Io { .. }
    ));
    fs::remove_dir(&snapshot).unwrap();
    fs::write(&snapshot, b"not a snapshot at all").unwrap();
    assert!(matches!(
        Store::recover(&dir).unwrap_err(),
        StoreError::BadMagic { .. }
    ));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_never_yields_a_half_loaded_engine() {
    // End to end: a store whose only snapshot is corrupted in the lake
    // section must refuse recovery outright (typed error, no partial
    // state), because there is no older snapshot to fall back to.
    let dir = test_dir("no_partial");
    let (lake, net, measures) = sample_engine();
    let mut store = Store::create(&dir).unwrap();
    store.checkpoint(&lake, &net, 0, &measures).unwrap();
    drop(store);

    let snap_path = dn_store::list_snapshots(&dir).unwrap()[0].1.clone();
    let bytes = fs::read(&snap_path).unwrap();
    let lake_section = *section_table(&bytes)
        .unwrap()
        .iter()
        .find(|s| s.name == "lake")
        .unwrap();
    let mut corrupted = bytes.clone();
    corrupted[lake_section.offset + lake_section.len / 3] ^= 0x10;
    fs::write(&snap_path, &corrupted).unwrap();

    match Store::recover(&dir) {
        Err(StoreError::SectionCrc { section }) => assert_eq!(section, "lake"),
        other => panic!("expected SectionCrc(lake), got {other:?}"),
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn wal_flip_truncates_replay_at_the_flip() {
    // A flipped byte mid-WAL behaves as a torn tail: recovery applies the
    // intact prefix and truncates the rest, rather than failing or
    // applying garbage.
    let dir = test_dir("wal_flip");
    let (mut lake, mut net, measures) = sample_engine();
    let mut store = Store::create(&dir).unwrap();
    store.checkpoint(&lake, &net, 0, &measures).unwrap();
    let mut good_len = 0;
    for i in 0..3u32 {
        let batch = vec![LakeDelta::new().add_table(
            TableBuilder::new(format!("wal_{i}"))
                .column("c", ["Jaguar", "Panda"])
                .build()
                .unwrap(),
        )];
        store.append_batch(0, &batch).unwrap();
        if i == 1 {
            good_len = 12 + store.wal_record_bytes(); // header + first two records
        }
        let effects = lake.apply_batch(batch.iter()).unwrap();
        net.apply_delta(&lake, &effects).unwrap();
        net.warm_rankings(&measures);
    }
    drop(store);

    let wal_path = dir.join("wal.dnlog");
    let mut bytes = fs::read(&wal_path).unwrap();
    let flip_at = good_len as usize + 5; // inside the third record
    bytes[flip_at] ^= 0xFF;
    fs::write(&wal_path, &bytes).unwrap();

    let (_, recovered) = Store::recover(&dir).unwrap();
    assert_eq!(recovered.replayed_batches, 2, "third batch torn away");
    assert!(recovered.lake.contains_table("wal_1"));
    assert!(!recovered.lake.contains_table("wal_2"));
    assert_eq!(
        fs::metadata(&wal_path).unwrap().len(),
        good_len,
        "the torn tail was truncated on recovery"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn foreign_wal_is_a_typed_error() {
    let dir = test_dir("foreign_wal");
    let (lake, net, measures) = sample_engine();
    let mut store = Store::create(&dir).unwrap();
    store.checkpoint(&lake, &net, 0, &measures).unwrap();
    drop(store);
    fs::write(dir.join("wal.dnlog"), b"definitely not a wal file").unwrap();
    assert!(matches!(
        Store::recover(&dir).unwrap_err(),
        StoreError::BadMagic { .. }
    ));
    fs::remove_dir_all(&dir).unwrap();
}

/// Replace `from` with `to` in the payload of the first record of the WAL
/// at `path` (the only one), re-deriving a *valid* CRC for the result.
fn reseal_first_wal_record(path: &Path, from: &str, to: &str) {
    let bytes = fs::read(path).unwrap();
    let header = 12usize; // magic + version
    let rec = &bytes[header..];
    let seq = u64::from_le_bytes(rec[..8].try_into().unwrap());
    let epoch = u64::from_le_bytes(rec[8..16].try_into().unwrap());
    let len = u32::from_le_bytes(rec[16..20].try_into().unwrap()) as usize;
    assert_eq!(rec.len(), 24 + len, "one record");
    let payload = std::str::from_utf8(&rec[24..24 + len]).unwrap();
    assert!(payload.contains(from), "payload shape changed: {payload}");
    let tampered = payload.replace(from, to);
    let mut checked = Vec::new();
    checked.extend_from_slice(&seq.to_le_bytes());
    checked.extend_from_slice(&epoch.to_le_bytes());
    checked.extend_from_slice(tampered.as_bytes());
    let crc = dn_store::codec::crc32(&checked);
    let mut rewritten = bytes[..header].to_vec();
    rewritten.extend_from_slice(&seq.to_le_bytes());
    rewritten.extend_from_slice(&epoch.to_le_bytes());
    rewritten.extend_from_slice(&(tampered.len() as u32).to_le_bytes());
    rewritten.extend_from_slice(&crc.to_le_bytes());
    rewritten.extend_from_slice(tampered.as_bytes());
    fs::write(path, &rewritten).unwrap();
}

#[test]
fn checksum_valid_but_structurally_impossible_wal_record_is_typed_not_panic() {
    // A record can be bit-intact (CRC passes) yet describe an impossible
    // table — e.g. a column whose row indices point outside its
    // dictionary. Derived serde would deserialize it happily and the
    // replay would later panic on an out-of-bounds index; the scan must
    // instead reject it as typed corruption.
    let dir = test_dir("bad_payload");
    let path = dir.join("wal.dnlog");
    let mut wal = Wal::create(&path).unwrap();
    let batch = vec![
        LakeDelta::new().add_table(TableBuilder::new("t").column("c", ["x"]).build().unwrap())
    ];
    wal.append(1, 0, &batch).unwrap();
    drop(wal);

    // Rewrite the record with indices pointing outside the dictionary.
    reseal_first_wal_record(&path, "\"indices\":[0]", "\"indices\":[9]");

    match scan_wal(&path) {
        Err(StoreError::Corrupt { context }) => {
            assert!(context.contains("record 1"), "{context}")
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_forged_distinct_array_in_a_wal_record_is_corrupt_on_recovery() {
    // A column's JSON carries its derived distinct values. A bit-intact
    // record whose array is not the one the dictionary derives is refused
    // at decode, so recovery is a typed error, never a replayed table.
    let dir = test_dir("forged_distinct");
    let (lake, net, measures) = sample_engine();
    let mut store = Store::create(&dir).unwrap();
    store.checkpoint(&lake, &net, 0, &measures).unwrap();
    let table = TableBuilder::new("T10")
        .column("animal", ["okapi", "Jaguar", "okapi"])
        .build()
        .unwrap();
    store
        .append_batch(1, &[LakeDelta::new().add_table(table)])
        .unwrap();
    drop(store);
    reseal_first_wal_record(
        &dir.join("wal.dnlog"),
        r#""distinct":["JAGUAR","OKAPI"]"#,
        r#""distinct":["OKAPI","JAGUAR"]"#,
    );
    match Store::recover(&dir) {
        Err(StoreError::Corrupt { context }) => assert!(
            context.contains("does not decode") && context.contains("distinct"),
            "{context}"
        ),
        Err(other) => panic!("expected Corrupt, got {other:?}"),
        Ok(_) => panic!("a forged distinct array recovered"),
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn wal_scan_reports_valid_prefix_lengths() {
    let dir = test_dir("scan");
    let path = dir.join("wal.dnlog");
    let mut wal = Wal::create(&path).unwrap();
    let batch = vec![
        LakeDelta::new().add_table(TableBuilder::new("t").column("c", ["x"]).build().unwrap())
    ];
    wal.append(1, 0, &batch).unwrap();
    drop(wal);
    let full = fs::metadata(&path).unwrap().len();
    // Every possible truncation of the file scans without panicking, and
    // the valid prefix never exceeds what is actually on disk.
    let bytes = fs::read(&path).unwrap();
    for cut in 0..bytes.len() {
        fs::write(&path, &bytes[..cut]).unwrap();
        let scan = scan_wal(&path).unwrap();
        assert!(scan.valid_len <= cut as u64);
        assert!(scan.records.len() <= 1);
    }
    fs::write(&path, &bytes).unwrap();
    assert_eq!(scan_wal(&path).unwrap().valid_len, full);
    fs::remove_dir_all(&dir).unwrap();
}
