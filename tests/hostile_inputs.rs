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
//!
//! A second loop does the same to the HTTP request heads in front of those
//! bodies: `dn_server::http::read_request` reads seeded edits of a top-k
//! GET and a mutation POST off a loopback socket and must return a request
//! whose body is exactly its declared length, or a typed `ReadError`.

use dn_server::api::MutationRequest;
use dn_server::http::{read_request, ReadError, Request};
use dn_server::Limits;
use dn_store::codec::crc32;
use dn_store::{scan_wal, StoreError, Wal};
use lake::delta::{LakeDelta, MutableLake};
use lake::table::TableBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
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

/// A request head as header lines, so that edits can replace or add a
/// header before the bytes are edited.
struct Head {
    request_line: &'static str,
    headers: Vec<(String, String)>,
    body: &'static [u8],
}

impl Head {
    /// The two requests a client sends most: a top-k GET and a mutation
    /// POST, with the headers `dn_server::Client` writes.
    fn real(post: bool) -> Head {
        let body: &'static [u8] = if post {
            br#"{"deltas":[{"ops":[{"RemoveTable":{"name":"T2"}}]}]}"#
        } else {
            b""
        };
        let mut headers = vec![
            ("Host".to_owned(), "127.0.0.1:8080".to_owned()),
            ("Content-Length".to_owned(), body.len().to_string()),
        ];
        if post {
            headers.push(("Content-Type".to_owned(), "application/json".to_owned()));
        }
        headers.push(("X-Dn-Trace-Id".to_owned(), "00000000000000ff".to_owned()));
        headers.push(("Connection".to_owned(), "keep-alive".to_owned()));
        Head {
            request_line: if post {
                "POST /v1/mutations HTTP/1.1"
            } else {
                "GET /v1/top-k?measure=bc&k=20 HTTP/1.1"
            },
            headers,
            body,
        }
    }

    fn set(&mut self, name: &str, value: String) {
        self.headers.retain(|(n, _)| !n.eq_ignore_ascii_case(name));
        self.headers.push((name.to_owned(), value));
    }

    fn bytes(&self) -> Vec<u8> {
        let mut out = format!("{}\r\n", self.request_line).into_bytes();
        for (name, value) in &self.headers {
            out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(self.body);
        out
    }
}

/// Content-Length values a hostile client may send besides a true one.
const SIGNED_LENGTHS: &[&str] = &["+4", "-4", "+0", "-0", "--1"];
const JUNK_LENGTHS: &[&str] = &["", "abc", "4 4", "0x10", "1_000", "4,4", "4.0", "\u{663}"];
const TRANSFER_ENCODINGS: &[&str] = &[
    "chunked",
    "Chunked",
    "gzip, chunked",
    "chunked, gzip",
    " cHuNkEd ",
    "identity",
    "gzip",
];

/// One seeded hostile request: the header edits first, then one to three
/// byte edits — a flipped bit, an inserted `\r`, `\n` or `:`, or a
/// truncation. The flag is set when the only edit declares a body above
/// `max_body_bytes`.
fn hostile_request(rng: &mut StdRng, limits: &Limits) -> (Vec<u8>, bool) {
    let mut head = Head::real(rng.gen_bool(0.5));
    let declared = head.body.len();
    let huge_only = rng.gen_range(0..8) == 0;
    if huge_only {
        let huge = [
            (limits.max_body_bytes + 1).to_string(),
            u64::MAX.to_string(),
            "99999999999999999999999".to_owned(),
        ];
        head.set("Content-Length", huge[rng.gen_range(0..huge.len())].clone());
        return (head.bytes(), true);
    }
    for _ in 0..rng.gen_range(0..=2) {
        match rng.gen_range(0..7) {
            0 => {
                let copy = if rng.gen_bool(0.5) {
                    declared
                } else {
                    rng.gen_range(0..=2 * declared + 1)
                };
                head.headers.insert(
                    rng.gen_range(0..=head.headers.len()),
                    ("content-length".to_owned(), copy.to_string()),
                );
            }
            1 => head.set(
                "Content-Length",
                (limits.max_body_bytes + rng.gen_range(1..=1 << 20)).to_string(),
            ),
            2 => head.set(
                "Content-Length",
                SIGNED_LENGTHS[rng.gen_range(0..SIGNED_LENGTHS.len())].to_owned(),
            ),
            3 => head.set(
                "Content-Length",
                JUNK_LENGTHS[rng.gen_range(0..JUNK_LENGTHS.len())].to_owned(),
            ),
            4 => {
                let value = TRANSFER_ENCODINGS[rng.gen_range(0..TRANSFER_ENCODINGS.len())];
                head.headers.insert(
                    rng.gen_range(0..=head.headers.len()),
                    ("Transfer-Encoding".to_owned(), value.to_owned()),
                );
            }
            5 => {
                // Past max_head_bytes by more than one 1 KiB socket read,
                // or just under it.
                let pad = if rng.gen_bool(0.5) {
                    limits.max_head_bytes + rng.gen_range(1024..=4096)
                } else {
                    limits.max_head_bytes - rng.gen_range(300..=1024)
                };
                head.headers.push(("X-Pad".to_owned(), "a".repeat(pad)));
            }
            _ => {}
        }
    }
    let mut out = head.bytes();
    for _ in 0..rng.gen_range(0..=3) {
        let at = rng.gen_range(0..=out.len());
        match rng.gen_range(0..4) {
            0 if at < out.len() => out[at] ^= 1 << rng.gen_range(0..8),
            1 => out.insert(at, [b'\r', b'\n', b':'][rng.gen_range(0..3)]),
            2 => out.truncate(at),
            _ => {}
        }
    }
    (out, false)
}

/// What the complete head of `bytes` declares, read off it line by line:
/// its Content-Length values and whether a Transfer-Encoding names
/// chunked. `None` without a complete head.
fn declared_framing(bytes: &[u8]) -> Option<(Vec<String>, bool)> {
    let end = bytes.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = String::from_utf8_lossy(&bytes[..end]);
    let (mut lengths, mut chunked) = (Vec::new(), false);
    for line in head.split("\r\n").skip(1) {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            lengths.push(value.to_owned());
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            chunked |= value.to_ascii_lowercase().contains("chunked");
        }
    }
    Some((lengths, chunked))
}

fn is_digits(value: &str) -> bool {
    !value.is_empty() && value.bytes().all(|b| b.is_ascii_digit())
}

/// Write `bytes` to a loopback connection, shut its write half, and read
/// one request off the accepted end, catching any panic.
fn read_off_socket(
    listener: &TcpListener,
    bytes: &[u8],
    limits: &Limits,
) -> std::thread::Result<Result<Request, ReadError>> {
    let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (mut server, _) = listener.accept().unwrap();
    server.set_read_timeout(Some(limits.read_timeout)).unwrap();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            client.write_all(bytes).unwrap();
            client.shutdown(Shutdown::Write).unwrap();
            // Hold the connection open until the server side is done.
            client
        });
        catch_unwind(AssertUnwindSafe(|| read_request(&mut server, limits)))
    })
}

/// `cases` seeded hostile requests, each read off its own connection.
fn hostile_heads(seed: u64, cases: usize) {
    let limits = Limits::default();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut outcomes: BTreeMap<&str, usize> = BTreeMap::new();
    for case in 0..cases {
        let what = format!("case {case} (seed {seed:#x})");
        let (bytes, huge_only) = hostile_request(&mut rng, &limits);
        let result = read_off_socket(&listener, &bytes, &limits)
            .unwrap_or_else(|_| panic!("{what}: read_request panicked"));
        let framing = declared_framing(&bytes);
        let oversize = framing.as_ref().is_some_and(|(lengths, _)| {
            lengths.iter().any(|v| {
                is_digits(v)
                    && v.parse::<usize>()
                        .map_or(true, |n| n > limits.max_body_bytes)
            })
        });
        if huge_only {
            assert!(
                matches!(result, Err(ReadError::BodyTooLarge)),
                "{what}: {result:?}"
            );
        }
        let outcome = match &result {
            Ok(request) => {
                let (lengths, chunked) = framing.expect("an accepted request has a whole head");
                assert!(!chunked, "{what}: accepted a chunked request");
                assert!(
                    lengths.iter().all(|v| is_digits(v) && *v == lengths[0]),
                    "{what}: accepted Content-Length {lengths:?}"
                );
                let declared = lengths.first().map_or(0, |v| v.parse().unwrap());
                assert_eq!(
                    request.body.len(),
                    declared,
                    "{what}: body is not the declared length"
                );
                "request"
            }
            Err(ReadError::Closed) => "closed",
            Err(ReadError::HeadTooLarge) => "head too large",
            Err(ReadError::BodyTooLarge) => "body too large",
            Err(ReadError::Truncated) => "truncated",
            Err(ReadError::Malformed(_)) => "malformed",
            Err(ReadError::ChunkedUnsupported) => "chunked",
            Err(error @ (ReadError::Timeout | ReadError::Io(_))) => {
                panic!("{what}: a transport error off a loopback socket: {error:?}")
            }
        };
        assert!(
            !(oversize && matches!(outcome, "request" | "truncated")),
            "{what}: a body above max_body_bytes was read ({outcome})"
        );
        *outcomes.entry(outcome).or_default() += 1;
    }
    for outcome in [
        "request",
        "head too large",
        "body too large",
        "truncated",
        "malformed",
        "chunked",
    ] {
        assert!(
            outcomes.contains_key(outcome),
            "no case was {outcome}: {outcomes:?}"
        );
    }
}

#[test]
fn hostile_http_heads_parse_or_refuse() {
    hostile_heads(0x477, 2_000);
}

/// The long mode: `cargo test --test hostile_inputs -- --ignored
/// hostile_http_heads_parse_or_refuse_long` (`./ci.sh` runs it in its
/// full run).
#[test]
#[ignore = "long mode, run by ./ci.sh without --quick"]
fn hostile_http_heads_parse_or_refuse_long() {
    hostile_heads(0x10_477, 50_000);
}
