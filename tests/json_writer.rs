//! The vendored JSON writer's fast paths against the code they replaced.
//!
//! `serde_json::to_string` pushes each run of a string that needs no
//! escape in one `push_str` and formats numbers in place. Every wire format
//! goes through it (API responses, WAL records and POST bodies, the ingest
//! journal, the paper ledger), so its bytes must stay those of the
//! char-by-char escaper and the `to_string()` number path, kept here as
//! the oracles. (`vendor/` is outside the workspace, so a unit test there
//! would run in neither `cargo test` nor `ci.sh`.)

/// The char-by-char escaper the run-based one replaced.
fn escaped_char_by_char(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `to_string()` float path the in-place one replaced.
fn float_via_to_string(f: f64) -> String {
    if f.is_finite() {
        let mut text = f.to_string();
        if !text.contains(['.', 'e', 'E']) {
            text.push_str(".0");
        }
        text
    } else {
        "null".to_owned()
    }
}

/// xorshift64*: a seeded stream with no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

fn assert_string_matches(s: &str) {
    let written = serde_json::to_string(s).expect("a string serializes");
    assert_eq!(written, escaped_char_by_char(s), "{s:?}");
}

/// The float is written second in an array whose first element holds a
/// `.`: a writer that looked at the whole buffer instead of what it
/// appended would show.
fn assert_float_matches(f: f64) {
    let written = serde_json::to_string(&vec![0.5, f]).expect("floats serialize");
    let oracle = format!("[0.5,{}]", float_via_to_string(f));
    assert_eq!(written, oracle, "{f:?} ({:#x})", f.to_bits());
}

fn assert_integers_match(i: i64, u: u64) {
    assert_eq!(serde_json::to_string(&i).unwrap(), i.to_string());
    assert_eq!(serde_json::to_string(&u).unwrap(), u.to_string());
}

#[test]
fn escaped_strings_match_the_char_by_char_escaper() {
    let mut pool: Vec<char> = (0u8..0x20).map(char::from).collect();
    pool.extend([
        '"', '\\', '\u{7f}', 'é', '€', '𝄞', '\u{2028}', '/', 'a', 'Z', ' ',
    ]);
    assert_string_matches("");
    for c in &pool {
        assert_string_matches(&c.to_string());
    }
    let mut rng = Rng(0x5EED_1503);
    for _ in 0..5_000 {
        let len = (rng.next() % 24) as usize;
        let s: String = (0..len)
            .map(|_| pool[(rng.next() % pool.len() as u64) as usize])
            .collect();
        assert_string_matches(&s);
    }
}

#[test]
fn numbers_match_the_to_string_path() {
    for f in [
        0.0,
        -0.0,
        1.0,
        -2.5,
        0.1,
        1e21,
        1e-7,
        5e-324,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
    ] {
        assert_float_matches(f);
    }
    for f in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_float_matches(f);
        assert_eq!(serde_json::to_string(&f).unwrap(), "null");
    }
    assert_integers_match(i64::MIN, u64::MAX);
    assert_integers_match(-1, 0);
    assert_integers_match(i64::MAX, i64::MAX as u64 + 1);
    let mut rng = Rng(0x5EED_2021);
    for _ in 0..5_000 {
        let bits = rng.next();
        assert_float_matches(f64::from_bits(bits));
        assert_float_matches((bits >> 11) as f64 / (1u64 << 20) as f64);
        assert_integers_match(bits as i64 >> (rng.next() % 64), bits >> (rng.next() % 64));
    }
}
