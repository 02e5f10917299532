//! A from-scratch RFC 4180 CSV reader and writer.
//!
//! Open-data lakes are distributed as CSV, so the substrate needs robust CSV
//! handling: quoted fields, escaped quotes (`""`), embedded delimiters,
//! embedded line breaks inside quoted fields, and both `\n` and `\r\n` line
//! endings. The implementation is deliberately self-contained (no external
//! crate) and streams from any [`std::io::BufRead`], so multi-gigabyte lakes
//! never need to be materialized as a single string.
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

use std::io::{self, BufRead, Write};

use crate::error::LakeError;
use crate::Result;

/// Configuration for the CSV reader.
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

/// Streaming CSV reader over any [`BufRead`].
#[derive(Debug)]
pub struct CsvReader<R> {
    input: R,
    options: CsvOptions,
    /// 1-based line number of the line currently being read (for errors).
    line: usize,
    done: bool,
}

impl<R: BufRead> CsvReader<R> {
    /// Create a reader with default options.
    pub fn new(input: R) -> Self {
        Self::with_options(input, CsvOptions::default())
    }

    /// Create a reader with explicit options.
    pub fn with_options(input: R, options: CsvOptions) -> Self {
        CsvReader {
            input,
            options,
            line: 0,
            done: false,
        }
    }

    /// Read the next record, or `Ok(None)` at end of input.
    ///
    /// A record is a vector of unescaped field strings. Quoted fields may
    /// contain the delimiter, the quote (escaped by doubling), and line
    /// breaks.
    pub fn next_record(&mut self) -> Result<Option<Vec<String>>> {
        if self.done {
            return Ok(None);
        }
        loop {
            let mut raw = Vec::new();
            let start_line = self.line + 1;
            // Read physical lines until quotes are balanced (a quoted field
            // may span lines) or EOF.
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
    pub fn records(mut self) -> Result<Vec<Vec<String>>> {
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
    let mut i = 0;
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

    while i < raw.len() {
        let b = raw[i];
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
                        message: format!("unexpected byte {:?} after closing quote", char::from(b)),
                    });
                }
            }
        }
        i += 1;
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

/// Parse an in-memory CSV string into records.
pub fn parse_str(input: &str) -> Result<Vec<Vec<String>>> {
    CsvReader::new(input.as_bytes()).records()
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

#[cfg(test)]
mod tests {
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
        let recs = CsvReader::with_options("a;b\n1;2\n".as_bytes(), opts)
            .records()
            .unwrap();
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
}
