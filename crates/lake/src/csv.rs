//! A from-scratch RFC 4180 CSV parser and writer.
//!
//! Open-data lakes are distributed as CSV, so the substrate needs robust CSV
//! handling: quoted fields, escaped quotes (`""`), embedded delimiters,
//! embedded line breaks inside quoted fields, and both `\n` and `\r\n` line
//! endings. The implementation is deliberately self-contained (no external
//! crate). It makes one pass over a document's bytes and yields every field
//! borrowed from them; only a field holding an escaped quote is copied.
//!
//! Two rules settle what real exports leave ambiguous. A quote opens a
//! quoted field only at the start of a field — anywhere else it is a
//! literal byte, so `12" ruler` is one cell — and a line break outside a
//! quoted field always ends the record. One leading UTF-8 byte-order mark
//! (which Excel and many open-data portals write) is skipped.
//!
//! ```
//! use lake::csv::{parse_str, write_records};
//!
//! let records = parse_str("a,b\n\"x,1\",\"he said \"\"hi\"\"\"\n").unwrap();
//! assert_eq!(records, vec![
//!     vec!["a".to_string(), "b".to_string()],
//!     vec!["x,1".to_string(), "he said \"hi\"".to_string()],
//! ]);
//!
//! let mut out = Vec::new();
//! write_records(&mut out, &records).unwrap();
//! let round_tripped = parse_str(std::str::from_utf8(&out).unwrap()).unwrap();
//! assert_eq!(round_tripped, records);
//! ```

use std::borrow::Cow;
use std::io::{self, Write};

use crate::error::LakeError;
use crate::Result;

/// Configuration for the CSV parser.
#[derive(Debug, Clone, Copy)]
pub struct CsvOptions {
    /// Field delimiter (default `,`).
    pub delimiter: u8,
    /// Quote character (default `"`).
    pub quote: u8,
    /// Whether empty lines between records are skipped (default `true`).
    pub skip_empty_lines: bool,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            delimiter: b',',
            quote: b'"',
            skip_empty_lines: true,
        }
    }
}

/// The UTF-8 byte-order mark.
const BOM: &[u8] = b"\xEF\xBB\xBF";

/// Where a field lies in the document: `bytes[start..end]`, quotes
/// stripped; `escaped` when that range holds doubled quotes to undo.
struct Span {
    start: usize,
    end: usize,
    escaped: bool,
}

impl Span {
    /// The field a delimiter or line break at `end` closes in `state`
    /// (any state but `Quoted`).
    fn ending(state: State, field_start: usize, end: usize, escaped: bool) -> Span {
        match state {
            State::FieldStart => Span {
                start: end,
                end,
                escaped: false,
            },
            // Short of the closing quote.
            State::QuoteInQuoted => Span {
                start: field_start,
                end: end - 1,
                escaped,
            },
            _ => Span {
                start: field_start,
                end,
                escaped: false,
            },
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    FieldStart,
    Unquoted,
    Quoted,
    QuoteInQuoted,
}

/// One pass over a CSV document's bytes, record by record.
///
/// Each record is checked in full before the next is read: its structure
/// (quotes) first, then the UTF-8 of every field. Errors carry the
/// 1-based line on which the record starts.
pub(crate) struct Records<'a> {
    bytes: &'a [u8],
    options: CsvOptions,
    /// Offset of the next record's first byte.
    pos: usize,
    /// 1-based line number at `pos`.
    line: usize,
    /// Where the run of `\r` that ends the document begins: a last record
    /// without a line break drops all of them, as `\r\n` drops its `\r`.
    trailing_cr: usize,
    /// The fields of the record being parsed (reused across records).
    spans: Vec<Span>,
}

impl<'a> Records<'a> {
    /// Parse `bytes`, skipping one leading byte-order mark.
    pub(crate) fn new(bytes: &'a [u8], options: CsvOptions) -> Self {
        let bytes = bytes.strip_prefix(BOM).unwrap_or(bytes);
        let trailing_cr = bytes.len() - bytes.iter().rev().take_while(|&&b| b == b'\r').count();
        Records {
            bytes,
            options,
            pos: 0,
            line: 1,
            trailing_cr,
            spans: Vec::new(),
        }
    }

    /// Replace `fields` with the next record's fields; `Ok(false)` at the
    /// end of the document.
    pub(crate) fn next_into(&mut self, fields: &mut Vec<Cow<'a, str>>) -> Result<bool> {
        fields.clear();
        while self.pos < self.bytes.len() {
            let (start, line) = (self.pos, self.line);
            let end = self.scan(line)?;
            if end == start && self.options.skip_empty_lines {
                continue;
            }
            for span in &self.spans {
                fields.push(field(self.bytes, span, self.options.quote, line)?);
            }
            return Ok(true);
        }
        Ok(false)
    }

    /// Record the field spans of the record at `pos` and move past its
    /// line break; returns where its content ends.
    fn scan(&mut self, line: usize) -> Result<usize> {
        let CsvOptions {
            delimiter, quote, ..
        } = self.options;
        let bytes = self.bytes;
        self.spans.clear();
        let mut state = State::FieldStart;
        let (mut field_start, mut escaped) = (self.pos, false);
        let mut i = self.pos;
        let end = loop {
            if state == State::Unquoted {
                // Only a delimiter or a line break can end an unquoted field.
                i += bytes[i..]
                    .iter()
                    .position(|&b| b == delimiter || b == b'\n' || b == b'\r')
                    .unwrap_or(bytes.len() - i);
            }
            let Some(&b) = bytes.get(i) else {
                self.pos = i;
                break i;
            };
            if state == State::Quoted {
                if b == quote {
                    state = State::QuoteInQuoted;
                } else if b == b'\n' {
                    self.line += 1;
                }
                i += 1;
                continue;
            }
            // Outside a quoted field a line break ends the record.
            let line_break = match b {
                b'\n' => Some((i + 1, 1)),
                b'\r' if bytes.get(i + 1) == Some(&b'\n') => Some((i + 2, 1)),
                b'\r' if i >= self.trailing_cr => Some((bytes.len(), 0)),
                _ => None,
            };
            if let Some((next, lines)) = line_break {
                self.line += lines;
                self.pos = next;
                break i;
            }
            match state {
                State::FieldStart if b == quote => {
                    (state, field_start, escaped) = (State::Quoted, i + 1, false);
                }
                State::QuoteInQuoted if b == quote => (state, escaped) = (State::Quoted, true),
                _ if b == delimiter => {
                    self.spans
                        .push(Span::ending(state, field_start, i, escaped));
                    state = State::FieldStart;
                }
                State::FieldStart => (state, field_start) = (State::Unquoted, i),
                State::Unquoted => {}
                State::QuoteInQuoted => {
                    return Err(LakeError::Csv {
                        line,
                        message: format!("unexpected byte {:?} after closing quote", char::from(b)),
                    })
                }
                State::Quoted => unreachable!("handled above"),
            }
            i += 1;
        };
        if state == State::Quoted {
            return Err(LakeError::Csv {
                line,
                message: "unterminated quoted field".to_owned(),
            });
        }
        self.spans
            .push(Span::ending(state, field_start, end, escaped));
        Ok(end)
    }
}

/// A field's text: borrowed from the document, or unescaped into a copy.
fn field<'a>(bytes: &'a [u8], span: &Span, quote: u8, line: usize) -> Result<Cow<'a, str>> {
    let raw = &bytes[span.start..span.end];
    let invalid = || LakeError::Csv {
        line,
        message: "field is not valid UTF-8".to_owned(),
    };
    if !span.escaped {
        return std::str::from_utf8(raw)
            .map(Cow::Borrowed)
            .map_err(|_| invalid());
    }
    // Inside a quoted field every quote is the first of a doubled pair.
    let mut unescaped = Vec::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(at) = rest.iter().position(|&b| b == quote) {
        unescaped.extend_from_slice(&rest[..=at]);
        rest = &rest[at + 2..];
    }
    unescaped.extend_from_slice(rest);
    String::from_utf8(unescaped)
        .map(Cow::Owned)
        .map_err(|_| invalid())
}

/// Every record of a CSV document.
fn parse_bytes(bytes: &[u8], options: CsvOptions) -> Result<Vec<Vec<String>>> {
    let mut records = Records::new(bytes, options);
    let mut fields = Vec::new();
    let mut out = Vec::new();
    while records.next_into(&mut fields)? {
        out.push(fields.drain(..).map(Cow::into_owned).collect());
    }
    Ok(out)
}

/// Parse an in-memory CSV string into records.
pub fn parse_str(input: &str) -> Result<Vec<Vec<String>>> {
    parse_bytes(input.as_bytes(), CsvOptions::default())
}

/// Render one field, quoting only when necessary.
fn write_field<W: Write>(out: &mut W, field: &str, options: CsvOptions) -> io::Result<()> {
    let needs_quoting = field
        .bytes()
        .any(|b| b == options.delimiter || b == options.quote || b == b'\n' || b == b'\r')
        || field.starts_with(' ')
        || field.ends_with(' ');
    if !needs_quoting {
        return out.write_all(field.as_bytes());
    }
    let quote = char::from(options.quote);
    out.write_all(&[options.quote])?;
    for ch in field.chars() {
        if ch == quote {
            out.write_all(&[options.quote, options.quote])?;
        } else {
            let mut buf = [0u8; 4];
            out.write_all(ch.encode_utf8(&mut buf).as_bytes())?;
        }
    }
    out.write_all(&[options.quote])
}

/// Write records as CSV with default options.
pub fn write_records<W: Write>(out: &mut W, records: &[Vec<String>]) -> Result<()> {
    write_records_with(out, records, CsvOptions::default())
}

/// Write records as CSV with explicit options.
pub fn write_records_with<W: Write>(
    out: &mut W,
    records: &[Vec<String>],
    options: CsvOptions,
) -> Result<()> {
    for record in records {
        for (i, field) in record.iter().enumerate() {
            if i > 0 {
                out.write_all(&[options.delimiter])
                    .map_err(LakeError::from)?;
            }
            write_field(out, field, options).map_err(LakeError::from)?;
        }
        out.write_all(b"\n").map_err(LakeError::from)?;
    }
    Ok(())
}

/// The reader this module's parser replaced: it joins `BufRead` lines until
/// the quotes on them balance, then splits the joined record. Kept as the
/// differential oracle; the two agree on every document without a quote
/// inside an unquoted cell (where this one joins the following lines).
#[cfg(test)]
pub(crate) mod oracle {
    use std::io::BufRead;

    use super::CsvOptions;
    use crate::error::LakeError;
    use crate::Result;

    /// Streaming CSV reader over any [`BufRead`].
    #[derive(Debug)]
    pub(crate) struct CsvReader<R> {
        input: R,
        options: CsvOptions,
        /// 1-based line number of the line currently being read (for errors).
        line: usize,
        done: bool,
    }

    impl<R: BufRead> CsvReader<R> {
        /// Create a reader with default options.
        pub(crate) fn new(input: R) -> Self {
            Self::with_options(input, CsvOptions::default())
        }

        /// Create a reader with explicit options.
        pub(crate) fn with_options(input: R, options: CsvOptions) -> Self {
            CsvReader {
                input,
                options,
                line: 0,
                done: false,
            }
        }

        /// Read the next record, or `Ok(None)` at end of input.
        pub(crate) fn next_record(&mut self) -> Result<Option<Vec<String>>> {
            if self.done {
                return Ok(None);
            }
            loop {
                let mut raw = Vec::new();
                let start_line = self.line + 1;
                // Read physical lines until quotes are balanced (a quoted
                // field may span lines) or EOF.
                loop {
                    let mut buf = Vec::new();
                    let n = self
                        .input
                        .read_until(b'\n', &mut buf)
                        .map_err(LakeError::from)?;
                    if n == 0 {
                        if raw.is_empty() {
                            self.done = true;
                            return Ok(None);
                        }
                        break;
                    }
                    self.line += 1;
                    raw.extend_from_slice(&buf);
                    if quotes_balanced(&raw, self.options.quote) {
                        break;
                    }
                }
                // Strip one trailing newline (and optional carriage return).
                while raw.last() == Some(&b'\n') || raw.last() == Some(&b'\r') {
                    let last = *raw.last().expect("checked non-empty");
                    if last == b'\n' {
                        raw.pop();
                        if raw.last() == Some(&b'\r') {
                            raw.pop();
                        }
                        break;
                    }
                    raw.pop();
                }
                if raw.is_empty() && self.options.skip_empty_lines {
                    if self.done {
                        return Ok(None);
                    }
                    continue;
                }
                let record = parse_record(&raw, start_line, self.options)?;
                return Ok(Some(record));
            }
        }

        /// Collect every remaining record.
        pub(crate) fn records(mut self) -> Result<Vec<Vec<String>>> {
            let mut out = Vec::new();
            while let Some(rec) = self.next_record()? {
                out.push(rec);
            }
            Ok(out)
        }
    }

    fn quotes_balanced(bytes: &[u8], quote: u8) -> bool {
        bytes.iter().filter(|&&b| b == quote).count() % 2 == 0
    }

    /// Parse one logical record (already split on record boundaries).
    fn parse_record(raw: &[u8], line: usize, options: CsvOptions) -> Result<Vec<String>> {
        let mut fields = Vec::new();
        let mut field = Vec::new();
        let quote = options.quote;
        let delim = options.delimiter;

        #[derive(PartialEq)]
        enum State {
            FieldStart,
            Unquoted,
            Quoted,
            QuoteInQuoted,
        }
        let mut state = State::FieldStart;

        for &b in raw {
            match state {
                State::FieldStart => {
                    if b == quote {
                        state = State::Quoted;
                    } else if b == delim {
                        fields.push(Vec::new());
                    } else {
                        field.push(b);
                        state = State::Unquoted;
                    }
                }
                State::Unquoted => {
                    if b == delim {
                        fields.push(std::mem::take(&mut field));
                        state = State::FieldStart;
                    } else {
                        field.push(b);
                    }
                }
                State::Quoted => {
                    if b == quote {
                        state = State::QuoteInQuoted;
                    } else {
                        field.push(b);
                    }
                }
                State::QuoteInQuoted => {
                    if b == quote {
                        // Escaped quote.
                        field.push(quote);
                        state = State::Quoted;
                    } else if b == delim {
                        fields.push(std::mem::take(&mut field));
                        state = State::FieldStart;
                    } else {
                        return Err(LakeError::Csv {
                            line,
                            message: format!(
                                "unexpected byte {:?} after closing quote",
                                char::from(b)
                            ),
                        });
                    }
                }
            }
        }
        match state {
            State::Quoted => {
                return Err(LakeError::Csv {
                    line,
                    message: "unterminated quoted field".to_owned(),
                })
            }
            State::FieldStart => fields.push(Vec::new()),
            State::Unquoted | State::QuoteInQuoted => fields.push(field),
        }

        fields
            .into_iter()
            .map(|f| {
                String::from_utf8(f).map_err(|_| LakeError::Csv {
                    line,
                    message: "field is not valid UTF-8".to_owned(),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::CsvReader;
    use super::*;

    #[test]
    fn simple_records() {
        let recs = parse_str("a,b,c\n1,2,3\n").unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0], vec!["a", "b", "c"]);
        assert_eq!(recs[1], vec!["1", "2", "3"]);
    }

    #[test]
    fn missing_trailing_newline() {
        let recs = parse_str("a,b\n1,2").unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1], vec!["1", "2"]);
    }

    #[test]
    fn crlf_line_endings() {
        let recs = parse_str("a,b\r\n1,2\r\n").unwrap();
        assert_eq!(recs[0], vec!["a", "b"]);
        assert_eq!(recs[1], vec!["1", "2"]);
    }

    #[test]
    fn quoted_fields_with_delimiters_and_quotes() {
        let recs = parse_str("\"a,1\",\"say \"\"hi\"\"\"\n").unwrap();
        assert_eq!(recs[0], vec!["a,1", "say \"hi\""]);
    }

    #[test]
    fn quoted_field_with_embedded_newline() {
        let recs = parse_str("\"line1\nline2\",x\n").unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0], vec!["line1\nline2", "x"]);
    }

    #[test]
    fn empty_fields_and_lines() {
        let recs = parse_str("a,,c\n\n,,\n").unwrap();
        assert_eq!(recs.len(), 2, "blank line skipped");
        assert_eq!(recs[0], vec!["a", "", "c"]);
        assert_eq!(recs[1], vec!["", "", ""]);
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        let err = parse_str("\"oops\n").unwrap_err();
        assert!(matches!(err, LakeError::Csv { .. }));
    }

    #[test]
    fn junk_after_closing_quote_is_an_error() {
        let err = parse_str("\"ok\"x,1\n").unwrap_err();
        assert!(matches!(err, LakeError::Csv { .. }));
    }

    #[test]
    fn custom_delimiter() {
        let opts = CsvOptions {
            delimiter: b';',
            ..CsvOptions::default()
        };
        let recs = parse_bytes(b"a;b\n1;2\n", opts).unwrap();
        assert_eq!(recs[1], vec!["1", "2"]);
    }

    #[test]
    fn writer_quotes_only_when_needed() {
        let records = vec![vec![
            "plain".to_string(),
            "with,comma".to_string(),
            "with \"quote\"".to_string(),
            "multi\nline".to_string(),
            " padded ".to_string(),
        ]];
        let mut out = Vec::new();
        write_records(&mut out, &records).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("plain,\"with,comma\""));
        let parsed = parse_str(&text).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn round_trip_unicode() {
        let records = vec![vec!["café".to_string(), "naïve, oui".to_string()]];
        let mut out = Vec::new();
        write_records(&mut out, &records).unwrap();
        let parsed = parse_str(std::str::from_utf8(&out).unwrap()).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn reader_is_streaming() {
        let mut reader = CsvReader::new("a,b\n1,2\n3,4\n".as_bytes());
        assert_eq!(reader.next_record().unwrap().unwrap(), vec!["a", "b"]);
        assert_eq!(reader.next_record().unwrap().unwrap(), vec!["1", "2"]);
        assert_eq!(reader.next_record().unwrap().unwrap(), vec!["3", "4"]);
        assert!(reader.next_record().unwrap().is_none());
        assert!(reader.next_record().unwrap().is_none(), "stays at EOF");
    }

    #[test]
    fn a_quote_inside_an_unquoted_cell_is_a_literal() {
        let recs = parse_str("a,b\n12\" ruler,3\nfoo,4\nbar,5\n").unwrap();
        assert_eq!(
            recs,
            vec![
                vec!["a", "b"],
                vec!["12\" ruler", "3"],
                vec!["foo", "4"],
                vec!["bar", "5"],
            ]
        );
    }

    #[test]
    fn one_leading_byte_order_mark_is_skipped() {
        let recs = parse_str("\u{feff}id,name\n1,x\n").unwrap();
        assert_eq!(recs, vec![vec!["id", "name"], vec!["1", "x"]]);
        // Only one, and only at the start of the document.
        let recs = parse_str("\u{feff}\u{feff}id\n\u{feff}x\n").unwrap();
        assert_eq!(recs, vec![vec!["\u{feff}id"], vec!["\u{feff}x"]]);
    }

    #[test]
    fn errors_name_the_line_the_record_starts_on() {
        let err = parse_str("a\n\n\"b\nc\"\n\"d\"x\n").unwrap_err();
        assert!(matches!(err, LakeError::Csv { line: 5, .. }), "{err:?}");
        let err = parse_bytes(b"a\r\n\"\xFF\nb\",c\n", CsvOptions::default()).unwrap_err();
        assert!(
            matches!(&err, LakeError::Csv { line: 2, message } if message.contains("UTF-8")),
            "{err:?}"
        );
    }

    /// Whether a quote occurs inside an unquoted cell: the one kind of
    /// document on which the oracle (which balances quotes per line) and
    /// the parser are meant to differ. Errs on the side of `true`.
    fn has_stray_quote(bytes: &[u8]) -> bool {
        let mut state = State::FieldStart;
        for &b in bytes {
            state = match (state, b) {
                (State::Quoted, b'"') => State::QuoteInQuoted,
                (State::Quoted, _) => State::Quoted,
                (State::Unquoted, b'"') => return true,
                (State::FieldStart | State::QuoteInQuoted, b'"') => State::Quoted,
                (_, b',' | b'\n') => State::FieldStart,
                _ => State::Unquoted,
            };
        }
        false
    }

    /// `cases` seeded random documents over the bytes a parser must get
    /// right — a two-byte character, a byte that is never UTF-8, the
    /// delimiter, the quote and both halves of a line break — parsed by the
    /// parser and the oracle: nothing panics, and without a stray quote
    /// both give the same records or the same error (variant and line).
    fn hostile_bytes_against_the_oracle(seed: u64, cases: usize) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        const PIECES: [&[u8]; 8] = [
            b"a",
            "é".as_bytes(),
            b"\xFF",
            b",",
            b"\"",
            b"\n",
            b"\r",
            b" ",
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut compared = 0;
        for case in 0..cases {
            let len = rng.gen_range(0..24);
            let doc: Vec<u8> = (0..len)
                .flat_map(|_| PIECES[rng.gen_range(0..PIECES.len())].iter().copied())
                .collect();
            for skip_empty_lines in [true, false] {
                let options = CsvOptions {
                    skip_empty_lines,
                    ..CsvOptions::default()
                };
                let ours = parse_bytes(&doc, options);
                if has_stray_quote(&doc) {
                    continue;
                }
                compared += 1;
                let theirs = CsvReader::with_options(&doc[..], options).records();
                // An error's Debug form is its variant, line and message.
                let debug = |r: Result<Vec<Vec<String>>>| r.map_err(|e| format!("{e:?}"));
                assert_eq!(debug(ours), debug(theirs), "case {case}: {doc:?}");
            }
        }
        assert!(compared > cases / 2, "only {compared} documents compared");
    }

    #[test]
    fn hostile_bytes_match_the_reference_reader() {
        hostile_bytes_against_the_oracle(0xC5F, 4_000);
    }

    /// The long mode: `cargo test -p lake --lib -- --ignored
    /// hostile_bytes_match_the_reference_reader_long` (`./ci.sh` runs it in
    /// its full run).
    #[test]
    #[ignore = "long mode, run by ./ci.sh without --quick"]
    fn hostile_bytes_match_the_reference_reader_long() {
        hostile_bytes_against_the_oracle(0x10_C5F, 60_000);
    }
}
