//! Corruption hardening: every malformed input must produce a typed
//! [`StoreError`] — never a panic, never a half-loaded lake.
//!
//! The cases mirror the ways files actually rot: truncation at arbitrary
//! points (torn writes, full disks), single flipped bytes in every section
//! (bit rot, bad sectors), foreign files (bad magic), and files written by
//! a future release (unsupported version).
//!
//! Temp directories live under `CARGO_TARGET_TMPDIR` and are removed at
//! the end of each test; CI's tempdir-hygiene gate fails if anything is
//! left behind.

use dn_store::codec::{put_u32_vec, ByteReader, ByteWriter};
use dn_store::snapshot::{
    decode_snapshot, encode_snapshot, read_snapshot, section_table, Manifest,
};
use dn_store::{scan_wal, Store, StoreError, Wal};
use domainnet::{DomainNet, DomainNetBuilder, Measure};
use lake::delta::{LakeDelta, MutableLake};
use lake::table::TableBuilder;
use lake::value::ValueId;
use std::fs;
use std::path::PathBuf;

fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("dn_store_corruption_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn sample_engine() -> (MutableLake, DomainNet, Vec<Measure>) {
    let mut lake = MutableLake::from_catalog(&lake::fixtures::running_example());
    let mut net = DomainNetBuilder::new().build(&lake);
    let measures = vec![Measure::lcc(), Measure::exact_bc()];
    net.warm_rankings(&measures);
    // A mutation so tombstones, generation, and patched caches are all
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
    encode_snapshot(&lake, &net, &manifest)
}

#[test]
fn pristine_snapshot_decodes() {
    let bytes = sample_snapshot_bytes();
    decode_snapshot(&bytes).expect("the uncorrupted baseline must load");
}

#[test]
fn bad_magic_is_typed() {
    let mut bytes = sample_snapshot_bytes();
    bytes[..8].copy_from_slice(b"NOTASNAP");
    match decode_snapshot(&bytes) {
        Err(StoreError::BadMagic { found, .. }) => assert_eq!(found, b"NOTASNAP"),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn future_format_version_is_typed() {
    // A later release's file, format 2 (which also stored the graph) and
    // format 1 (which also carried component labels and rankings): one
    // reader, one typed refusal.
    for version in [99u32, 2, 1] {
        let mut bytes = sample_snapshot_bytes();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        match decode_snapshot(&bytes) {
            Err(StoreError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, version);
                assert_eq!(supported, 3);
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
    let bytes = encode_snapshot(&lake, &net, &manifest);
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
        |payload: &[u8], what: &str| match decode_snapshot(&with_payload(&bytes, "net", payload)) {
            Err(StoreError::Corrupt { context }) => {
                assert!(context.contains(what), "{context}")
            }
            other => panic!("expected Corrupt ({what}), got {other:?}"),
        };

    // One entry short of the value nodes.
    let mut short = payload[..payload.len() - 8].to_vec();
    short[vector - 8..vector].copy_from_slice(&(values as u64 - 1).to_le_bytes());
    expect_corrupt(&short, "cardinalities cover");

    // A tombstoned (degree-0) node that claims neighbours.
    let graph = net.graph();
    let isolated = graph
        .value_nodes()
        .find(|&v| graph.degree(v) == 0)
        .expect("the sample mutation tombstones a value");
    let mut haunted = payload.to_vec();
    haunted[vector + 8 * isolated as usize] = 7;
    expect_corrupt(&haunted, "isolated value node");

    // The resealing itself is sound: the untouched payload still loads.
    decode_snapshot(&with_payload(&bytes, "net", payload)).unwrap();
}

/// `bytes` with the net section's id maps rewritten by `forge` (given
/// `node_of_value` and `attr_index_of`), resealed by [`with_payload`].
fn with_forged_id_maps(bytes: &[u8], forge: impl FnOnce(&mut Vec<u32>, &mut Vec<u32>)) -> Vec<u8> {
    let net = *section_table(bytes)
        .unwrap()
        .iter()
        .find(|s| s.name == "net")
        .unwrap();
    let mut r = ByteReader::new(&bytes[net.offset..net.offset + net.len], "net");
    let head = r.take(1 + 8).unwrap(); // pruning flag, generation
    let mut node_of_value = r.get_u32_vec().unwrap();
    let mut attr_index_of = r.get_u32_vec().unwrap();
    let tail = r.take(r.remaining()).unwrap();
    forge(&mut node_of_value, &mut attr_index_of);
    let mut w = ByteWriter::new();
    w.put_bytes(head);
    put_u32_vec(&mut w, &node_of_value);
    put_u32_vec(&mut w, &attr_index_of);
    w.put_bytes(tail);
    with_payload(bytes, "net", &w.into_inner())
}

#[test]
fn forged_id_maps_are_corrupt_not_served() {
    // The graph is derived from the lake through the net's id maps, so a
    // checksum-valid net section whose maps lie about the lake must be
    // refused, naming the invariant, before anything indexes through them.
    let (lake, net, measures) = sample_engine();
    let manifest = Manifest {
        last_seq: 4,
        epoch: 2,
        measures,
    };
    let bytes = encode_snapshot(&lake, &net, &manifest);
    let expect_corrupt = |forged: Vec<u8>, what: &str| match decode_snapshot(&forged) {
        Err(StoreError::Corrupt { context }) => assert!(context.contains(what), "{context}"),
        other => panic!("expected Corrupt ({what}), got {other:?}"),
    };
    let graph = net.graph();
    let node = |vid: usize| net.node_of_value(ValueId(vid as u32));
    let mapped: Vec<usize> = (0..lake.value_count())
        .filter(|&v| node(v).is_some())
        .collect();
    let candidate = *mapped
        .iter()
        .find(|&&v| graph.degree(node(v).unwrap()) > 0)
        .expect("the sample has candidates");

    // (a) A candidate value with no node. The value on the last node takes
    // the candidate's, so the remaining nodes still fill 0..n.
    let last = graph.value_count() as u32 - 1;
    expect_corrupt(
        with_forged_id_maps(&bytes, |values, _| {
            let top = values.iter().position(|&n| n == last).unwrap();
            values[top] = values[candidate];
            values[candidate] = u32::MAX;
        }),
        &format!("candidate value {candidate} has no value node"),
    );
    // (b) Two values on one node.
    expect_corrupt(
        with_forged_id_maps(&bytes, |values, _| values[mapped[1]] = values[mapped[0]]),
        "map to one value node",
    );
    // (c) An attribute index past the allocated ones.
    let allocated = graph.attribute_count();
    expect_corrupt(
        with_forged_id_maps(&bytes, |_, attrs| {
            let attr = attrs.iter().position(|&i| i != u32::MAX).unwrap();
            attrs[attr] = allocated as u32 + 3;
        }),
        &format!("past the {allocated} allocated"),
    );
    // (d) A value map shorter than the lake.
    expect_corrupt(
        with_forged_id_maps(&bytes, |values, _| {
            values.pop();
        }),
        "value map covers",
    );

    // The forging itself is sound: unchanged maps still load.
    decode_snapshot(&with_forged_id_maps(&bytes, |_, _| {})).unwrap();
}

#[test]
fn ill_shaped_tables_are_corrupt_not_served() {
    // Each column of the lake section is validated on its own, so a
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
    let bytes = encode_snapshot(&lake, &net, &manifest);
    let section = *section_table(&bytes)
        .unwrap()
        .iter()
        .find(|s| s.name == "lake")
        .unwrap();
    let payload = &bytes[section.offset..section.offset + section.len];
    // A dictionary entry and the row indices after it, or a bare name.
    let encoded = |text: &str, indices: Option<&[u32]>| {
        let mut w = ByteWriter::new();
        w.put_str(text);
        if let Some(indices) = indices {
            put_u32_vec(&mut w, indices);
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
    // `col_two` keeps its one-entry dictionary but loses a row; or it is
    // renamed `col_one`.
    let ragged = replaced(
        &encoded("Okapi", Some(&[0, 0])),
        &encoded("Okapi", Some(&[0])),
    );
    let twice = replaced(&encoded("col_two", None), &encoded("col_one", None));
    for (forged, what) in [
        (ragged, "column 'col_two' has 1 rows but the table has 2"),
        (twice, "declares column 'col_one' more than once"),
    ] {
        match decode_snapshot(&with_payload(&bytes, "lake", &forged)) {
            Err(StoreError::Corrupt { context }) => assert!(context.contains(what), "{context}"),
            other => panic!("expected Corrupt ({what}), got {other:?}"),
        }
    }

    // The forging itself is sound: the unchanged section still loads.
    decode_snapshot(&with_payload(&bytes, "lake", payload)).unwrap();
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
        let err = decode_snapshot(truncated).expect_err("truncated file must not load");
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
            match decode_snapshot(&corrupted) {
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
    decode_snapshot(&bytes).unwrap();
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
        let _ = decode_snapshot(&corrupted);
    }
}

#[test]
fn read_snapshot_propagates_io_and_corruption_errors() {
    let dir = test_dir("read");
    let missing = dir.join("missing.dnsnap");
    assert!(matches!(
        read_snapshot(&missing).unwrap_err(),
        StoreError::Io { .. }
    ));
    let garbage = dir.join("garbage.dnsnap");
    fs::write(&garbage, b"not a snapshot at all").unwrap();
    assert!(matches!(
        read_snapshot(&garbage).unwrap_err(),
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
    assert!(recovered.lake.table("wal_1").is_some());
    assert!(recovered.lake.table("wal_2").is_none());
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

    // Rewrite the record with indices pointing outside the dictionary,
    // re-deriving a *valid* CRC for the tampered payload.
    let bytes = fs::read(&path).unwrap();
    let header = 12usize; // magic + version
    let rec = &bytes[header..];
    let seq = u64::from_le_bytes(rec[..8].try_into().unwrap());
    let epoch = u64::from_le_bytes(rec[8..16].try_into().unwrap());
    let len = u32::from_le_bytes(rec[16..20].try_into().unwrap()) as usize;
    let payload = std::str::from_utf8(&rec[24..24 + len]).unwrap();
    assert!(payload.contains("\"indices\":[0]"), "payload shape changed");
    let tampered = payload.replace("\"indices\":[0]", "\"indices\":[9]");
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
    fs::write(&path, &rewritten).unwrap();

    match scan_wal(&path) {
        Err(StoreError::Corrupt { context }) => {
            assert!(context.contains("record 1"), "{context}")
        }
        other => panic!("expected Corrupt, got {other:?}"),
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
    let full = wal.len_bytes();
    drop(wal);
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
