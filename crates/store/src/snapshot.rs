//! The versioned, checksummed snapshot file format.
//!
//! A snapshot captures the complete durable state of a serving engine at
//! one instant: the mutable lake (tables, tombstones, the append-only
//! interner) and the net's state (id mappings, generation, per-measure
//! score vectors, cardinalities). Scores are stored as raw IEEE-754 bit
//! patterns, so a write → read → write cycle is **bit-identical**.
//!
//! What is a function of those and cheaper to recompute than to read back
//! is not stored: the bipartite graph (one value-major pass over the lake
//! through the net's id maps, [`DomainNet::from_parts`]), component labels
//! (one BFS over that graph), the memoized rankings (a sort of scores and
//! cardinalities the recovering engine's `warm_rankings` redoes) and a
//! value's attribute count (its degree). Raw scores and cardinalities
//! stay: recomputing either costs a kernel pass, far more than decoding it.
//!
//! ## File layout
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────┐
//! │ magic "DNSNAP01" (8)  │ format version u32                 │
//! ├────────────────────────────────────────────────────────────┤
//! │ section count u32                                          │
//! │ section table: { id u32, offset u64, len u64, crc32 u32 }* │
//! ├────────────────────────────────────────────────────────────┤
//! │ payloads, in section-table order:                          │
//! │   1 manifest   last_seq, epoch, served measures            │
//! │   2 lake       tables (columnar), attr slots, value sets,  │
//! │                interner                                    │
//! │   3 net        pruning flag, generation, id maps, raw      │
//! │                scores per measure, cardinalities           │
//! └────────────────────────────────────────────────────────────┘
//! ```
//!
//! All integers are little-endian; strings are length-prefixed UTF-8. Each
//! section carries its own CRC-32 so a flipped byte is attributed to the
//! section it corrupted. Decoding validates every cross-reference — within
//! the lake ([`MutableLake::from_raw_parts`]), and between the net's id
//! maps and the lake they index, then the score vectors against the
//! derived graph ([`DomainNet::from_parts`]) — before any state is
//! returned, so a torn or tampered file yields a typed [`StoreError`],
//! never a half-loaded engine.

use std::fs;
use std::path::Path;

use domainnet::{DomainNet, Measure, NetCachesState, NetState};
use lake::catalog::AttrId;
use lake::delta::MutableLake;
use lake::value::ValueId;

use crate::codec::{crc32, get_measure, put_measure, put_u32_vec, ByteReader, ByteWriter};
use crate::error::{Result, StoreError};

/// The 8-byte magic every snapshot file starts with.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"DNSNAP01";
/// The one snapshot format version this build reads and writes. Format 2
/// also stored the graph, and format 1 component labels, rankings and
/// attribute counts besides; both are refused.
pub const FORMAT_VERSION: u32 = 3;

const SECTION_MANIFEST: u32 = 1;
const SECTION_LAKE: u32 = 2;
const SECTION_NET: u32 = 3;

/// The codec's fan-out: task `i` encodes or decodes section `FAN_OUT[i]`.
/// The lake, the largest section, is task 0, which the calling thread runs.
const FAN_OUT: [u32; 3] = [SECTION_LAKE, SECTION_MANIFEST, SECTION_NET];

fn section_name(id: u32) -> &'static str {
    match id {
        SECTION_MANIFEST => "manifest",
        SECTION_LAKE => "lake",
        SECTION_NET => "net",
        _ => "unknown",
    }
}

/// Snapshot-level metadata: where this snapshot sits relative to the WAL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// The highest WAL batch sequence number folded into this snapshot.
    /// Recovery replays only records with larger sequence numbers.
    pub last_seq: u64,
    /// The serving epoch last published before the snapshot was taken.
    pub epoch: u64,
    /// The measures the engine was serving (recovery re-warms exactly
    /// these after each replayed batch, mirroring the live writer).
    pub measures: Vec<Measure>,
}

/// A fully validated snapshot: the lake, the net (graph + caches), and the
/// manifest that situates it in the WAL.
#[derive(Debug)]
pub struct PersistedState {
    /// The restored mutable lake (stable ids intact).
    pub lake: MutableLake,
    /// The restored net: graph derived from the lake, raw scores and
    /// cardinalities as persisted, rankings not yet derived.
    pub net: DomainNet,
    /// Snapshot metadata.
    pub manifest: Manifest,
}

/// One entry of a snapshot's section table (exposed for corruption tooling
/// and tests that need to target a specific section).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionInfo {
    /// Section id.
    pub id: u32,
    /// Human-readable section name.
    pub name: &'static str,
    /// Absolute byte offset of the payload within the file.
    pub offset: usize,
    /// Payload length in bytes.
    pub len: usize,
    /// Expected CRC-32 of the payload.
    pub crc: u32,
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn encode_manifest(manifest: &Manifest) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(manifest.last_seq);
    w.put_u64(manifest.epoch);
    w.put_u64(manifest.measures.len() as u64);
    for &m in &manifest.measures {
        put_measure(&mut w, m);
    }
    w.into_inner()
}

fn encode_lake(lake: &MutableLake) -> Vec<u8> {
    let mut w = ByteWriter::new();
    let slots = lake.table_slots();
    w.put_u64(slots.len() as u64);
    for slot in slots {
        match slot {
            None => w.put_bool(false),
            Some(table) => {
                w.put_bool(true);
                w.put_str(table.name());
                w.put_u32(table.column_count() as u32);
                for column in table.columns() {
                    w.put_str(column.name());
                    // Columns are dictionary-encoded natively; persist the
                    // dictionary + row indices verbatim (small on disk, and
                    // the loader normalizes once per distinct raw cell
                    // instead of once per row).
                    let dictionary = column.dictionary();
                    w.put_u64(dictionary.len() as u64);
                    for entry in dictionary {
                        w.put_str(entry);
                    }
                    put_u32_vec(&mut w, column.cell_indices());
                }
            }
        }
    }
    let locations = lake.attr_locations();
    let live = lake.attr_live_flags();
    w.put_u64(locations.len() as u64);
    for (i, &(slot, col)) in locations.iter().enumerate() {
        w.put_u64(slot as u64);
        w.put_u32(col as u32);
        w.put_bool(live[i]);
    }
    for i in 0..locations.len() {
        let values = lake.attribute_values(AttrId(i as u32));
        w.put_u64(values.len() as u64);
        for v in values {
            w.put_u32(v.0);
        }
    }
    w.put_u64(lake.interner().len() as u64);
    for (_, value) in lake.interner().iter() {
        w.put_str(value);
    }
    w.into_inner()
}

fn encode_net(state: &NetState) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_bool(state.config.prune_single_attribute_values);
    w.put_u64(state.generation);
    put_u32_vec(&mut w, &state.node_of_value);
    put_u32_vec(&mut w, &state.attr_index_of);
    w.put_u64(state.attr_id_of_index.len() as u64);
    for attr in &state.attr_id_of_index {
        w.put_u32(attr.0);
    }
    w.put_u64(state.caches.raw.len() as u64);
    for (measure, scores) in &state.caches.raw {
        put_measure(&mut w, *measure);
        w.put_u64(scores.len() as u64);
        for &score in scores {
            w.put_f64(score);
        }
    }
    match &state.caches.cardinalities {
        None => w.put_bool(false),
        Some(cardinalities) => {
            w.put_bool(true);
            w.put_u64(cardinalities.len() as u64);
            for &cardinality in cardinalities {
                w.put_u64(cardinality as u64);
            }
        }
    }
    w.into_inner()
}

/// Encode a complete snapshot into bytes. Deterministic: the same state
/// always produces the same bytes. Equivalent to
/// [`encode_snapshot_threaded`] with one thread.
pub fn encode_snapshot(lake: &MutableLake, net: &DomainNet, manifest: &Manifest) -> Vec<u8> {
    encode_snapshot_threaded(lake, net, manifest, 1)
}

/// [`encode_snapshot`] with the three section encodes (and their CRCs)
/// spread over up to `threads` workers. The section table and payload
/// assembly stay in fixed section order, so the output bytes are identical
/// for every thread count — the `snapshot_round_trips_bit_exactly` test
/// pins this.
pub fn encode_snapshot_threaded(
    lake: &MutableLake,
    net: &DomainNet,
    manifest: &Manifest,
    threads: usize,
) -> Vec<u8> {
    let net_state = net.export_state();
    let ctx = dn_trace::current();
    let mut encoded: Vec<(u32, Vec<u8>, u32)> =
        dn_pool::Pool::new(threads).run(FAN_OUT.len(), |i| {
            let id = FAN_OUT[i];
            let _encode = ctx.enter(dn_trace::Phase::PoolSnapshotEncode, section_name(id));
            let payload = match id {
                SECTION_MANIFEST => encode_manifest(manifest),
                SECTION_LAKE => encode_lake(lake),
                _ => encode_net(&net_state),
            };
            let crc = crc32(&payload);
            (id, payload, crc)
        });
    encoded.sort_unstable_by_key(|&(id, ..)| id);

    let header_len = SNAPSHOT_MAGIC.len() + 4 + 4 + encoded.len() * (4 + 8 + 8 + 4);
    let mut w = ByteWriter::new();
    w.put_bytes(SNAPSHOT_MAGIC);
    w.put_u32(FORMAT_VERSION);
    w.put_u32(encoded.len() as u32);
    let mut offset = header_len as u64;
    for (id, payload, crc) in &encoded {
        w.put_u32(*id);
        w.put_u64(offset);
        w.put_u64(payload.len() as u64);
        w.put_u32(*crc);
        offset += payload.len() as u64;
    }
    for (_, payload, _) in &encoded {
        w.put_bytes(payload);
    }
    w.into_inner()
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Parse and bounds-check a snapshot's section table without touching the
/// payloads. Exposed so tests and tooling can locate sections precisely.
pub fn section_table(bytes: &[u8]) -> Result<Vec<SectionInfo>> {
    let mut r = ByteReader::new(bytes, "snapshot header");
    let magic = r.take(SNAPSHOT_MAGIC.len())?;
    if magic != SNAPSHOT_MAGIC {
        return Err(StoreError::BadMagic {
            found: magic.to_vec(),
            expected: SNAPSHOT_MAGIC,
        });
    }
    let version = r.get_u32()?;
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let count = r.get_u32()? as usize;
    if count.saturating_mul(4 + 8 + 8 + 4) > r.remaining() {
        return Err(StoreError::Truncated {
            context: "snapshot header: section table".into(),
        });
    }
    let mut sections = Vec::with_capacity(count);
    for _ in 0..count {
        let id = r.get_u32()?;
        let offset = r.get_u64()?;
        let len = r.get_u64()?;
        let crc = r.get_u32()?;
        let offset =
            usize::try_from(offset).map_err(|_| StoreError::corrupt("section offset overflows"))?;
        let len =
            usize::try_from(len).map_err(|_| StoreError::corrupt("section length overflows"))?;
        let end = offset.checked_add(len).filter(|&end| end <= bytes.len());
        if end.is_none() {
            return Err(StoreError::Truncated {
                context: format!("section '{}' payload", section_name(id)),
            });
        }
        sections.push(SectionInfo {
            id,
            name: section_name(id),
            offset,
            len,
            crc,
        });
    }
    Ok(sections)
}

fn section_payload<'a>(bytes: &'a [u8], sections: &[SectionInfo], id: u32) -> Result<&'a [u8]> {
    let info = sections
        .iter()
        .find(|s| s.id == id)
        .ok_or_else(|| StoreError::corrupt(format!("missing section '{}'", section_name(id))))?;
    let payload = &bytes[info.offset..info.offset + info.len];
    if crc32(payload) != info.crc {
        return Err(StoreError::SectionCrc {
            section: section_name(id),
        });
    }
    Ok(payload)
}

fn decode_manifest(payload: &[u8]) -> Result<Manifest> {
    let mut r = ByteReader::new(payload, "manifest");
    let last_seq = r.get_u64()?;
    let epoch = r.get_u64()?;
    let count = r.get_count(1)?;
    let measures = (0..count)
        .map(|_| get_measure(&mut r))
        .collect::<Result<Vec<Measure>>>()?;
    r.expect_exhausted()?;
    Ok(Manifest {
        last_seq,
        epoch,
        measures,
    })
}

fn decode_lake(payload: &[u8]) -> Result<MutableLake> {
    let mut r = ByteReader::new(payload, "lake");
    let slot_count = r.get_count(1)?;
    let mut tables = Vec::with_capacity(slot_count);
    for _ in 0..slot_count {
        if !r.get_bool()? {
            tables.push(None);
            continue;
        }
        let name = r.get_str()?;
        let col_count = r.get_u32()? as usize;
        let mut columns = Vec::with_capacity(col_count.min(r.remaining()));
        for _ in 0..col_count {
            let col_name = r.get_str()?;
            let dict_count = r.get_count(8)?;
            let dictionary = (0..dict_count)
                .map(|_| r.get_str_ref())
                .collect::<Result<lake::column::StringList>>()?;
            let indices = r.get_u32_vec()?;
            let column = lake::Column::from_dictionary(col_name, dictionary, indices)
                .map_err(|e| StoreError::corrupt(format!("lake: {e}")))?;
            columns.push(column);
        }
        tables.push(Some(lake::Table::from_columns(name, columns)));
    }
    let attr_count = r.get_count(8 + 4 + 1)?;
    let mut locations = Vec::with_capacity(attr_count);
    let mut live = Vec::with_capacity(attr_count);
    for _ in 0..attr_count {
        let slot = r.get_u64()? as usize;
        let col = r.get_u32()? as usize;
        locations.push((slot, col));
        live.push(r.get_bool()?);
    }
    let mut attr_values = Vec::with_capacity(attr_count);
    for _ in 0..attr_count {
        let values = r.get_u32_vec()?.into_iter().map(ValueId).collect();
        attr_values.push(values);
    }
    let value_count = r.get_count(8)?;
    let interner_values = (0..value_count)
        .map(|_| r.get_str())
        .collect::<Result<Vec<String>>>()?;
    r.expect_exhausted()?;

    MutableLake::from_raw_parts(tables, locations, live, attr_values, interner_values)
        .map_err(|e| StoreError::corrupt(format!("lake: {e}")))
}

fn decode_net_state(payload: &[u8]) -> Result<NetState> {
    let mut r = ByteReader::new(payload, "net");
    let prune_single_attribute_values = r.get_bool()?;
    let generation = r.get_u64()?;
    let node_of_value = r.get_u32_vec()?;
    let attr_index_of = r.get_u32_vec()?;
    let attr_id_of_index = r.get_u32_vec()?.into_iter().map(AttrId).collect();
    let raw_count = r.get_count(1)?;
    let mut raw = Vec::with_capacity(raw_count);
    for _ in 0..raw_count {
        let measure = get_measure(&mut r)?;
        let len = r.get_count(8)?;
        let scores = (0..len)
            .map(|_| r.get_f64())
            .collect::<Result<Vec<f64>>>()?;
        raw.push((measure, scores));
    }
    let cardinalities = if r.get_bool()? {
        let counts = r.get_u64_vec()?;
        Some(counts.into_iter().map(|c| c as usize).collect())
    } else {
        None
    };
    r.expect_exhausted()?;

    let config = domainnet::pipeline::DomainNetConfig {
        prune_single_attribute_values,
    };
    Ok(NetState {
        config,
        generation,
        node_of_value,
        attr_index_of,
        attr_id_of_index,
        caches: NetCachesState { raw, cardinalities },
    })
}

/// One snapshot section, CRC-verified and decoded — the unit of work
/// [`decode_snapshot_threaded`] fans out.
enum DecodedSection {
    Manifest(Manifest),
    Lake(Box<MutableLake>),
    Net(Box<NetState>),
}

/// Decode and fully validate a snapshot from bytes. Equivalent to
/// [`decode_snapshot_threaded`] with one thread.
pub fn decode_snapshot(bytes: &[u8]) -> Result<PersistedState> {
    decode_snapshot_threaded(bytes, 1)
}

/// [`decode_snapshot`] with the per-section CRC checks and decodes spread
/// over up to `threads` workers. Validation coverage is identical to the
/// sequential path — every section is checked, and the net is validated
/// against the lake (and its graph derived) after the fan-in. When several
/// sections are corrupt at once, every width reports the first in fan-out
/// order (lake, manifest, net).
pub fn decode_snapshot_threaded(bytes: &[u8], threads: usize) -> Result<PersistedState> {
    let sections = section_table(bytes)?;
    let ctx = dn_trace::current();
    let decoded = dn_pool::Pool::new(threads).run(FAN_OUT.len(), |i| -> Result<DecodedSection> {
        let id = FAN_OUT[i];
        let _decode = ctx.enter(dn_trace::Phase::PoolSnapshotDecode, section_name(id));
        let payload = section_payload(bytes, &sections, id)?;
        Ok(match id {
            SECTION_MANIFEST => DecodedSection::Manifest(decode_manifest(payload)?),
            SECTION_LAKE => DecodedSection::Lake(Box::new(decode_lake(payload)?)),
            _ => DecodedSection::Net(Box::new(decode_net_state(payload)?)),
        })
    });
    let mut manifest = None;
    let mut lake = None;
    let mut state = None;
    for section in decoded {
        match section? {
            DecodedSection::Manifest(m) => manifest = Some(m),
            DecodedSection::Lake(l) => lake = Some(*l),
            DecodedSection::Net(s) => state = Some(*s),
        }
    }
    let (manifest, lake) = (manifest.expect("decoded"), lake.expect("decoded"));
    let net = DomainNet::from_parts(&lake, state.expect("decoded"))
        .map_err(|e| StoreError::corrupt(format!("net: {e}")))?;
    Ok(PersistedState {
        lake,
        net,
        manifest,
    })
}

/// Encode a snapshot and write it atomically ([`crate::write_atomic`]).
/// Returns the snapshot size in bytes.
pub fn write_snapshot(
    path: &Path,
    lake: &MutableLake,
    net: &DomainNet,
    manifest: &Manifest,
) -> Result<u64> {
    write_snapshot_threaded(path, lake, net, manifest, 1)
}

/// [`write_snapshot`] with the section encodes spread over up to `threads`
/// workers (the file bytes are identical for every thread count).
pub fn write_snapshot_threaded(
    path: &Path,
    lake: &MutableLake,
    net: &DomainNet,
    manifest: &Manifest,
    threads: usize,
) -> Result<u64> {
    let bytes = encode_snapshot_threaded(lake, net, manifest, threads);
    crate::write_atomic(path, &bytes)?;
    Ok(bytes.len() as u64)
}

/// Read and fully validate a snapshot file.
pub fn read_snapshot(path: &Path) -> Result<PersistedState> {
    read_snapshot_threaded(path, 1)
}

/// [`read_snapshot`] with section decoding spread over up to `threads`
/// workers.
pub fn read_snapshot_threaded(path: &Path, threads: usize) -> Result<PersistedState> {
    let bytes = fs::read(path).map_err(|e| StoreError::io_with_path(e, path))?;
    decode_snapshot_threaded(&bytes, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use domainnet::DomainNetBuilder;
    use lake::delta::{LakeDelta, LakeView};
    use lake::table::TableBuilder;

    fn sample_state() -> (MutableLake, DomainNet, Manifest) {
        let mut lake = MutableLake::from_catalog(&lake::fixtures::running_example());
        let mut net = DomainNetBuilder::new()
            .prune_single_attribute_values(false)
            .build(&lake);
        let measures = vec![Measure::lcc(), Measure::exact_bc()];
        net.warm_rankings(&measures);
        // Fold in a mutation so tombstones and generation > 0 are exercised.
        let effects = lake
            .apply(
                &LakeDelta::new().remove_table("T3").add_table(
                    TableBuilder::new("T9")
                        .column("animal", ["Jaguar", "Okapi"])
                        .build()
                        .unwrap(),
                ),
            )
            .unwrap();
        net.apply_delta(&lake, &effects).unwrap();
        net.warm_rankings(&measures);
        let manifest = Manifest {
            last_seq: 17,
            epoch: 3,
            measures,
        };
        (lake, net, manifest)
    }

    #[test]
    fn snapshot_round_trips_bit_exactly() {
        let (lake, net, manifest) = sample_state();
        let bytes = encode_snapshot(&lake, &net, &manifest);
        let restored = decode_snapshot(&bytes).unwrap();

        assert_eq!(restored.manifest, manifest);
        // Lake: identical id spaces and live structure.
        assert_eq!(restored.lake.live_table_names(), lake.live_table_names());
        assert_eq!(
            LakeView::incidence_count(&restored.lake),
            LakeView::incidence_count(&lake)
        );
        for vid in (0..lake.value_count() as u32).map(ValueId) {
            assert_eq!(
                LakeView::value(&restored.lake, vid),
                LakeView::value(&lake, vid)
            );
        }
        // Graph: derived from the lake, identical CSR arrays and values.
        let (a, b) = (restored.net.graph(), net.graph());
        assert_eq!(a.csr_offsets(), b.csr_offsets());
        assert_eq!(a.csr_adjacency(), b.csr_adjacency());
        assert_eq!(a.value_labels(), b.value_labels());
        // Net state (scores compared via PartialEq on the export).
        assert_eq!(restored.net.export_state(), net.export_state());
        // Re-encoding the restored state is byte-identical: the format is
        // deterministic and nothing was lost.
        assert_eq!(
            encode_snapshot(&restored.lake, &restored.net, &restored.manifest),
            bytes
        );
    }

    #[test]
    fn threaded_codec_is_byte_identical_to_sequential() {
        let (lake, net, manifest) = sample_state();
        let sequential = encode_snapshot(&lake, &net, &manifest);
        for threads in [2, 4, 8] {
            let threaded = encode_snapshot_threaded(&lake, &net, &manifest, threads);
            assert_eq!(threaded, sequential, "threads={threads}");
            let restored = decode_snapshot_threaded(&sequential, threads).unwrap();
            assert_eq!(restored.manifest, manifest, "threads={threads}");
            assert_eq!(
                restored.net.export_state(),
                net.export_state(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn threaded_decode_still_attributes_corruption_to_its_section() {
        let (lake, net, manifest) = sample_state();
        let bytes = encode_snapshot(&lake, &net, &manifest);
        let sections = section_table(&bytes).unwrap();
        let lake = sections.iter().find(|s| s.id == SECTION_LAKE).unwrap();
        let mut bad = bytes.clone();
        bad[lake.offset + lake.len / 2] ^= 0xFF;
        match decode_snapshot_threaded(&bad, 4).unwrap_err() {
            StoreError::SectionCrc { section } => assert_eq!(section, "lake"),
            other => panic!("expected a section CRC error, got {other:?}"),
        }
    }

    #[test]
    fn restored_rankings_are_served_from_the_memo() {
        let (lake, net, manifest) = sample_state();
        let bytes = encode_snapshot(&lake, &net, &manifest);
        let restored = decode_snapshot(&bytes).unwrap();
        for &measure in &manifest.measures {
            let a = net.rank_shared(measure);
            let b = restored.net.rank_shared(measure);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.value, y.value);
                assert_eq!(x.score.to_bits(), y.score.to_bits(), "{}", x.value);
            }
        }
    }

    #[test]
    fn section_table_locates_all_three_sections() {
        let (lake, net, manifest) = sample_state();
        let bytes = encode_snapshot(&lake, &net, &manifest);
        let sections = section_table(&bytes).unwrap();
        let names: Vec<&str> = sections.iter().map(|s| s.name).collect();
        assert_eq!(names, ["manifest", "lake", "net"]);
        let total: usize = sections.iter().map(|s| s.len).sum();
        let last = sections.last().unwrap();
        assert_eq!(last.offset + last.len, bytes.len());
        assert!(total < bytes.len());
    }

    #[test]
    fn file_round_trip_is_atomic_and_exact() {
        let dir = crate::testutil::scratch_dir("snapfile");
        let (lake, net, manifest) = sample_state();
        let path = dir.join("snap.dnsnap");
        let bytes_written = write_snapshot(&path, &lake, &net, &manifest).unwrap();
        assert_eq!(bytes_written, fs::metadata(&path).unwrap().len());
        assert!(
            !dir.join("snap.dnsnap.tmp").exists(),
            "temp file renamed away"
        );
        let restored = read_snapshot(&path).unwrap();
        assert_eq!(restored.net.export_state(), net.export_state());
        fs::remove_dir_all(&dir).unwrap();
    }
}
