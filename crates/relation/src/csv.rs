//! CSV reading and writing (RFC-4180 flavour), hand-rolled.
//!
//! Dataset exchange in the cleaning experiments happens over CSV: the
//! workload generators dump instances, the Semandaq CLI loads them. The
//! subset supported: comma separator, `"`-quoting with `""` escapes,
//! embedded newlines inside quotes, optional trailing newline. Headers
//! are required and must match the schema's attribute names when a schema
//! is provided.
//!
//! Every reader sits on one `Scanner`, which hands out each field as a
//! `&str` borrowed from the input (copied to a scratch buffer only when
//! unescaping changes its bytes). The table loaders turn a field into a
//! typed pool key and intern it straight into the columns, so a cell
//! allocates only the first time its value is seen. The writer walks the
//! columns the other way, and pays per distinct value too: a symbol's
//! field text (quoted if it needs it) is rendered once, into an arena,
//! the first time a cell holds it; every cell after that is a slice
//! copy, and a file receives 64 KiB chunks of whole lines. (The
//! per-cell renderer it replaced survives under `#[cfg(test)]` as its
//! oracle.)
//!
//! The scanner finds delimiters eight bytes at a time (`find_any`): a
//! SWAR zero-byte test per target byte on one little-endian word, whose
//! lowest set bit is the first match. An unquoted run stops at `,`, a
//! line break or a stray `"`; a quoted run at `"` or `\n` (so the line
//! count stays exact). Only the input's last < 8 bytes are stepped one
//! at a time.

use crate::error::{Error, Result};
use crate::pool::{Key, Sym};
use crate::schema::{Attribute, Schema, Type};
use crate::table::Table;
use crate::value::Value;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::io::Write as _;

/// One scanned record: where it starts and how many fields it has.
struct Record {
    /// 1-based physical line the record starts on — what every
    /// [`Error::Csv`] about the record reports.
    line: usize,
    fields: usize,
}

/// Record scanner over CSV text.
struct Scanner<'a> {
    input: &'a str,
    /// Byte offset of the next unread field.
    pos: usize,
    /// 1-based physical line `pos` is on.
    line: usize,
    /// Holds a field whose text is not a contiguous slice of `input`
    /// (`""` escapes, or text after a closing quote); reused.
    scratch: String,
}

impl<'a> Scanner<'a> {
    fn new(input: &'a str) -> Self {
        Scanner::at_line(input, 1)
    }

    /// A scanner whose input starts on physical line `line`.
    fn at_line(input: &'a str, line: usize) -> Self {
        Scanner { input, pos: 0, line, scratch: String::new() }
    }

    /// Scan the next non-blank record, handing each field to
    /// `visit(position, text)`; `None` at end of input. A record that is
    /// a single empty field (an empty line, or just `""`) is blank and
    /// skipped.
    fn record(&mut self, mut visit: impl FnMut(usize, &str)) -> Result<Option<Record>> {
        while self.pos < self.input.len() {
            let line = self.line;
            let (first, mut more) = self.field(line)?;
            if first.is_empty() && !more {
                continue;
            }
            visit(0, first);
            let mut fields = 1;
            while more {
                let (field, m) = self.field(line)?;
                visit(fields, field);
                fields += 1;
                more = m;
            }
            return Ok(Some(Record { line, fields }));
        }
        Ok(None)
    }

    /// Scan one field: an optional quoted part, then unquoted text up to
    /// the next `,` (→ `true`: the record continues) or to a line break
    /// or the end of input (→ `false`). `record_line` labels errors.
    ///
    /// Every slice boundary below sits next to an ASCII delimiter or at
    /// an end of `input`, so it is a `char` boundary.
    fn field(&mut self, record_line: usize) -> Result<(&str, bool)> {
        let err = |message: &str| Error::Csv { line: record_line, message: message.into() };
        let input = self.input;
        let bytes = input.as_bytes();
        let mut i = self.pos;
        // `Some(text)` once a quoted part has been read, borrowed while
        // it is a plain slice of the input.
        let mut quoted = None;
        if bytes.get(i) == Some(&b'"') {
            i += 1;
            self.scratch.clear();
            let mut from = i;
            loop {
                i = find_any(bytes, i, &QUOTED);
                match bytes.get(i) {
                    None => return Err(err("unterminated quoted field")),
                    Some(b'"') if bytes.get(i + 1) == Some(&b'"') => {
                        // Keep the first quote of the pair, skip the second.
                        self.scratch.push_str(&input[from..=i]);
                        i += 2;
                        from = i;
                    }
                    Some(b'"') => break,
                    Some(_) => {
                        // A line break inside the quotes.
                        self.line += 1;
                        i += 1;
                    }
                }
            }
            quoted = Some(&input[from..i]);
            i += 1;
        }
        let rest = i;
        i = find_any(bytes, i, &UNQUOTED);
        let more = match bytes.get(i) {
            Some(b',') => true,
            Some(b'"') => return Err(err("quote inside unquoted field")),
            // A line break, or the end of input.
            _ => false,
        };
        let rest = &input[rest..i];
        self.pos = match bytes.get(i) {
            None => i,
            Some(b'\r') if bytes.get(i + 1) == Some(&b'\n') => i + 2,
            Some(_) => i + 1,
        };
        if !more && i < bytes.len() {
            self.line += 1;
        }
        let field = match quoted {
            None => rest,
            Some(tail) if self.scratch.is_empty() && rest.is_empty() => tail,
            Some(tail) => {
                self.scratch.push_str(tail);
                self.scratch.push_str(rest);
                &self.scratch
            }
        };
        Ok((field, more))
    }
}

/// The bytes that end an unquoted run: a separator, a line break, or a
/// quote that has no business there — so also the bytes that make the
/// writer quote a field.
const UNQUOTED: [u8; 4] = [b',', b'\n', b'\r', b'"'];

/// The bytes that stop a quoted run: its closing (or doubled) quote, or
/// a line break the scanner must count.
const QUOTED: [u8; 2] = [b'"', b'\n'];

/// `0x01` in every byte of a word.
const ONES: u64 = u64::from_ne_bytes([0x01; 8]);

/// `0x80` in every byte of a word.
const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);

/// Offset of the first byte at or after `from` that is in `set`, or
/// `bytes.len()` if there is none.
///
/// Eight bytes a step, loaded little-endian so the lowest byte is the
/// first. For each target `c`, `x = w ^ (ONES × c)` is zero exactly in
/// the bytes of `w` that hold `c`, and `(x − ONES) & !x & HIGHS` sets
/// those bytes' high bits. A borrow can set a high bit that is not a
/// match, but only above a byte that is, so the lowest set bit of the
/// set's OR is the exact first match. Only the input's last < 8 bytes
/// are stepped one at a time.
#[inline]
fn find_any<const N: usize>(bytes: &[u8], from: usize, set: &[u8; N]) -> usize {
    let mut i = from;
    while let Some(chunk) = bytes.get(i..i + 8) {
        let w = u64::from_le_bytes(chunk.try_into().expect("an 8-byte chunk"));
        let hits = set.iter().fold(0, |hits, &c| {
            let x = w ^ (ONES * u64::from(c));
            hits | (x.wrapping_sub(ONES) & !x & HIGHS)
        });
        if hits != 0 {
            return i + (hits.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    for (at, b) in bytes.iter().enumerate().skip(i) {
        #[cfg(test)]
        BYTEWISE.with(|n| n.set(n.get() + 1));
        if set.contains(b) {
            return at;
        }
    }
    bytes.len()
}

#[cfg(test)]
thread_local! {
    /// Bytes this thread's scans stepped over one at a time — the word
    /// scan's work count.
    static BYTEWISE: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Parse a full CSV document into records (blank records skipped).
pub fn parse(input: &str) -> Result<Vec<Vec<String>>> {
    let mut scanner = Scanner::new(input);
    let mut out: Vec<Vec<String>> = Vec::new();
    loop {
        let mut fields = Vec::with_capacity(out.last().map_or(0, Vec::len));
        if scanner.record(|_, field| fields.push(field.to_string()))?.is_none() {
            return Ok(out);
        }
        out.push(fields);
    }
}

/// The header record: its line and column names.
fn read_header(scanner: &mut Scanner<'_>) -> Result<(usize, Vec<String>)> {
    let mut names = Vec::new();
    let header = scanner
        .record(|_, name| names.push(name.to_string()))?
        .ok_or_else(|| Error::Csv { line: 1, message: "missing header".into() })?;
    Ok((header.line, names))
}

/// Time one ingest call into `csv_ingest_us` and count what it loaded.
fn observed(input: &str, ingest: impl FnOnce() -> Result<Table>) -> Result<Table> {
    let obs = revival_obs::global();
    let _span = revival_obs::Span::start(obs.histogram("csv_ingest_us"));
    let table = ingest()?;
    if revival_obs::enabled() {
        obs.counter("csv_ingest_rows_total").add(table.len() as u64);
        obs.counter("csv_ingest_bytes_total").add(input.len() as u64);
    }
    Ok(table)
}

/// Load a table from CSV text, validating the header against `schema`.
pub fn read_table(schema: &Schema, input: &str) -> Result<Table> {
    observed(input, || load(schema, input, 0))
}

/// [`read_table`]'s body; `rows` sizes the columns up front.
fn load(schema: &Schema, input: &str, rows: usize) -> Result<Table> {
    let mut scanner = Scanner::new(input);
    let (line, header) = read_header(&mut scanner)?;
    let attrs = schema.attributes();
    if !header.iter().eq(attrs.iter().map(|a| &a.name)) {
        let expected: Vec<&str> = attrs.iter().map(|a| a.name.as_str()).collect();
        return Err(Error::Csv {
            line,
            message: format!("header {header:?} does not match schema {expected:?}"),
        });
    }
    let mut table = Table::with_capacity(schema.clone(), rows);
    let mut row: Vec<Sym> = Vec::with_capacity(attrs.len());
    loop {
        row.clear();
        let pool = table.pool_mut();
        if !typed_record(&mut scanner, attrs, |key| row.push(pool.intern_key(key)))? {
            return Ok(table);
        }
        table.push_syms(&row);
    }
}

/// Scan the next record against `attrs`, handing each cell to `cell` as
/// a typed key; `false` at end of input. A record of the wrong arity is
/// an error, and so — if the arity is right — is its first cell that
/// does not parse as its column's type.
fn typed_record(
    scanner: &mut Scanner<'_>,
    attrs: &[Attribute],
    mut cell: impl FnMut(Key<'_>),
) -> Result<bool> {
    let mut bad: Option<(usize, String)> = None;
    let scanned = scanner.record(|a, raw| {
        if a < attrs.len() && bad.is_none() {
            match attrs[a].ty.parse_key(raw) {
                Some(key) => cell(key),
                None => bad = Some((a, raw.to_string())),
            }
        }
    })?;
    let Some(record) = scanned else {
        return Ok(false);
    };
    check_arity(&record, attrs.len())?;
    match bad {
        None => Ok(true),
        Some((a, raw)) => {
            let Attribute { name, ty, .. } = &attrs[a];
            Err(Error::Csv {
                line: record.line,
                message: format!("cannot parse `{raw}` as {ty} for `{name}`"),
            })
        }
    }
}

fn check_arity(record: &Record, arity: usize) -> Result<()> {
    if record.fields == arity {
        return Ok(());
    }
    Err(Error::Csv {
        line: record.line,
        message: format!("expected {arity} fields, got {}", record.fields),
    })
}

/// Load a table from CSV inferring a schema: every column is `Str` unless
/// all non-empty values parse as Int (then Int) or Float (then Float).
/// Two scans over borrowed fields: one to settle the types and count
/// the rows, one to load.
pub fn read_table_infer(name: &str, input: &str) -> Result<Table> {
    observed(input, || {
        let mut scanner = Scanner::new(input);
        let (line, header) = read_header(&mut scanner)?;
        let mut seen = HashSet::with_capacity(header.len());
        if let Some(twice) = header.iter().find(|column| !seen.insert(column.as_str())) {
            return Err(Error::Csv { line, message: format!("duplicate column `{twice}`") });
        }
        // `None` until the column shows a non-empty value.
        let mut types: Vec<Option<Type>> = vec![None; header.len()];
        let mut rows = 0;
        while let Some(record) = scanner.record(|c, raw| {
            if let (Some(ty), false) = (types.get_mut(c), raw.is_empty()) {
                *ty = Some(match ty.unwrap_or(Type::Int) {
                    Type::Int if raw.parse::<i64>().is_ok() => Type::Int,
                    Type::Int | Type::Float if raw.parse::<f64>().is_ok() => Type::Float,
                    _ => Type::Str,
                });
            }
        })? {
            // Also what bounds `rows` × arity, the columns' capacity, by
            // the input's length.
            check_arity(&record, header.len())?;
            rows += 1;
        }
        let attrs = header
            .into_iter()
            .zip(types)
            .map(|(column, ty)| Attribute::new(column, ty.unwrap_or(Type::Str)))
            .collect();
        load(&Schema::new(name, attrs), input, rows)
    })
}

/// Append `field` to `out`, quoted if it needs it.
fn write_field(out: &mut String, field: &str) {
    if find_any(field.as_bytes(), 0, &UNQUOTED) < field.len() {
        out.push('"');
        for ch in field.chars() {
            if ch == '"' {
                out.push('"');
            }
            out.push(ch);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

/// Append one cell's field text: nothing for `Null`, a string quoted
/// if it needs it, anything else as it displays.
fn write_cell(out: &mut String, value: &Value) {
    match value {
        Value::Null => {}
        Value::Str(s) => write_field(out, s),
        // Numbers and booleans never render a character that needs quoting.
        other => write!(out, "{other}").expect("writing to a String"),
    }
}

/// How many bytes [`write_table_path`] renders before it hands them to
/// the file.
const WRITE_CHUNK: usize = 1 << 16;

/// Render the table (header, then live rows in id order) onto the end
/// of `out`, handing `out` to `drain` whenever a finished line leaves
/// at least `chunk` bytes in it. Cells are read off the columns as
/// symbols; a symbol's field text is rendered into an arena the first
/// time a cell holds it, and every cell after that is a copy of its
/// slice. No row is materialised, and no value is scanned or
/// formatted twice.
fn write_lines(
    table: &Table,
    out: &mut String,
    chunk: usize,
    mut drain: impl FnMut(&mut String) -> Result<()>,
) -> Result<()> {
    let attrs = table.schema().attributes();
    for (a, attr) in attrs.iter().enumerate() {
        if a > 0 {
            out.push(',');
        }
        write_field(out, &attr.name);
    }
    out.push('\n');
    let pool = table.pool();
    // Per symbol: its text's `start..end` in `arena`, or `UNRENDERED`.
    const UNRENDERED: (usize, usize) = (usize::MAX, 0);
    let mut spans = vec![UNRENDERED; pool.len()];
    let mut arena = String::new();
    let cols: Vec<&[Sym]> = (0..attrs.len()).map(|a| table.col(a)).collect();
    for slot in table.live_slots() {
        for (a, col) in cols.iter().enumerate() {
            if a > 0 {
                out.push(',');
            }
            let sym = col[slot];
            let span = &mut spans[sym.index()];
            if *span == UNRENDERED {
                let start = arena.len();
                write_cell(&mut arena, pool.value(sym));
                *span = (start, arena.len());
            }
            out.push_str(&arena[span.0..span.1]);
        }
        out.push('\n');
        if out.len() >= chunk {
            drain(out)?;
        }
    }
    Ok(())
}

/// Serialize a table to CSV text (header + live rows in id order).
pub fn write_table(table: &Table) -> String {
    let mut out = String::new();
    write_lines(table, &mut out, usize::MAX, |_| Ok(())).expect("appending to a String");
    out
}

/// Write a table to a file path, streaming it in chunks of whole lines.
pub fn write_table_path(table: &Table, path: &std::path::Path) -> Result<()> {
    let mut file = std::fs::File::create(path)?;
    let mut drain = |out: &mut String| -> Result<()> {
        file.write_all(out.as_bytes())?;
        out.clear();
        Ok(())
    };
    let mut out = String::with_capacity(2 * WRITE_CHUNK);
    write_lines(table, &mut out, WRITE_CHUNK, &mut drain)?;
    drain(&mut out)
}

/// Parse one data line (no header) against `schema` into a typed row —
/// the unit of work for appended lines of a growing CSV (tail mode and
/// the serve protocol's `append`). The line is exactly one record:
/// quoting is honoured, a line break outside quotes is only accepted at
/// the very end. `lineno` is only used in errors.
pub fn parse_line(schema: &Schema, line: &str, lineno: usize) -> Result<Vec<Value>> {
    let err = |message: &str| Error::Csv { line: lineno, message: message.into() };
    let mut scanner = Scanner::at_line(line, lineno);
    let mut row = Vec::with_capacity(schema.arity());
    if !typed_record(&mut scanner, schema.attributes(), |key| row.push(key.to_value()))? {
        return Err(err("empty record"));
    }
    if scanner.pos < line.len() {
        return Err(err("line break outside quotes"));
    }
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn schema() -> Schema {
        Schema::builder("r").attr("name", Type::Str).attr("age", Type::Int).build()
    }

    fn csv_line(r: Result<impl std::fmt::Debug>) -> usize {
        match r {
            Err(Error::Csv { line, .. }) => line,
            other => panic!("expected a csv error, got {other:?}"),
        }
    }

    #[test]
    fn simple_roundtrip() {
        let s = schema();
        let input = "name,age\nalice,30\nbob,41\n";
        let t = read_table(&s, input).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(write_table(&t), input);
    }

    #[test]
    fn quoting_roundtrip() {
        let s = Schema::builder("r")
            .attr("name", Type::Str)
            .attr("n", Type::Int)
            .attr("x", Type::Float)
            .attr("ok", Type::Bool)
            .build();
        let names = [
            "plain",
            "has,comma",
            "has\"quote",
            "\"\"",
            "has\nnewline",
            "has\r\nCRLF",
            "bare\rCR",
            " padded ",
            "müller, \"é\"",
        ];
        let mut t = Table::new(s);
        for (i, name) in names.iter().enumerate() {
            let i = i as i64;
            t.push(vec![
                (*name).into(),
                Value::Int(-i),
                Value::Float(i as f64 / 4.0),
                (i % 2 == 0).into(),
            ])
            .unwrap();
        }
        t.push(vec![Value::Null, Value::Null, Value::Float(f64::INFINITY), Value::Null]).unwrap();
        t.delete(crate::TupleId(0)).unwrap();
        let text = write_table(&t);
        assert!(text.starts_with(
            "name,n,x,ok\n\"has,comma\",-1,0.25,false\n\"has\"\"quote\",-2,0.5,true\n"
        ));
        assert!(text.ends_with("\n,,inf,\n"));
        let back = read_table(t.schema(), &text).unwrap();
        let rows = |t: &Table| t.rows().map(|(_, r)| r).collect::<Vec<_>>();
        assert_eq!(rows(&back), rows(&t));
        assert_eq!(write_table(&back), text);
        // The streamed file is the same bytes as the string.
        let path = std::env::temp_dir().join(format!("revival-csv-{}.csv", std::process::id()));
        write_table_path(&t, &path).unwrap();
        let on_disk = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(on_disk, text);
    }

    #[test]
    fn empty_field_is_null() {
        let s = schema();
        let t = read_table(&s, "name,age\nalice,\n").unwrap();
        let (_, row) = t.rows().next().unwrap();
        assert!(row[1].is_null());
    }

    #[test]
    fn header_mismatch_rejected() {
        let s = schema();
        assert!(read_table(&s, "x,y\na,1\n").is_err());
        assert!(read_table(&s, "name\na\n").is_err());
        assert!(read_table(&s, "name,age,more\na,1,2\n").is_err());
        assert!(read_table(&s, "").is_err());
    }

    #[test]
    fn bad_int_rejected() {
        let s = schema();
        assert_eq!(csv_line(read_table(&s, "name,age\nalice,notanint\n")), 2);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let s = schema();
        assert!(read_table(&s, "name,age\nalice\n").is_err());
        // Arity is the error even when a cell is bad too.
        let err = read_table(&s, "name,age\nalice,x,1\n").unwrap_err().to_string();
        assert!(err.contains("expected 2 fields, got 3"), "{err}");
    }

    #[test]
    fn errors_name_the_line_the_record_starts_on() {
        let s = Schema::builder("r").attr("a", Type::Int).attr("b", Type::Str).build();
        // A blank line and a quoted newline precede the offending record,
        // which starts on physical line 6.
        let short = "a,b\n\n1,x\n2,\"y\nz\"\n3\n";
        let err = read_table(&s, short).unwrap_err();
        assert_eq!(err.to_string(), "csv error at line 6: expected 2 fields, got 1");
        assert_eq!(csv_line(read_table_infer("r", short)), 6);
        let bad_int = "a,b\n\n1,x\n2,\"y\nz\"\nq,w\n";
        let err = read_table(&s, bad_int).unwrap_err().to_string();
        assert_eq!(err, "csv error at line 6: cannot parse `q` as int for `a`");
        // Scanner errors too: the record with the stray quote starts on line 3.
        assert_eq!(csv_line(parse("a\r\n\r\"x\ny\",b\"\n")), 3);
        assert_eq!(csv_line(parse("a\n\n\"x\ny")), 3);
        assert_eq!(csv_line(read_table(&s, "\n\nb,a\n")), 3);
    }

    #[test]
    fn duplicate_header_is_an_error_not_a_panic() {
        let err = read_table_infer("t", "a,a\n1,2\n").unwrap_err();
        assert_eq!(err.to_string(), "csv error at line 1: duplicate column `a`");
        assert_eq!(csv_line(read_table_infer("t", "\nx,,y,\n")), 2);
    }

    #[test]
    fn crlf_handled() {
        let s = schema();
        let t = read_table(&s, "name,age\r\nalice,30\r\n").unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn infer_types() {
        let t = read_table_infer("r", "a,b,c\n1,1.5,xyz\n2,2.5,abc\n").unwrap();
        let s = t.schema();
        assert_eq!(s.attribute(0).ty, Type::Int);
        assert_eq!(s.attribute(1).ty, Type::Float);
        assert_eq!(s.attribute(2).ty, Type::Str);
    }

    #[test]
    fn infer_all_empty_column_is_str() {
        let t = read_table_infer("r", "a,b\n1,\n2,\n").unwrap();
        assert_eq!(t.schema().attribute(1).ty, Type::Str);
    }

    #[test]
    fn parse_line_types_and_errors() {
        let s = schema();
        assert_eq!(parse_line(&s, "alice,30", 5).unwrap(), vec!["alice".into(), Value::Int(30)]);
        assert_eq!(parse_line(&s, "\"a,b\",1", 5).unwrap()[0], Value::from("a,b"));
        assert_eq!(parse_line(&s, "a,1\r\n", 5).unwrap(), parse_line(&s, "a,1", 5).unwrap());
        assert_eq!(parse_line(&s, "\"a\nb\",1", 5).unwrap()[0], Value::from("a\nb"));
        for bad in ["alice,nope", "alice", "a,1,2", "", "\"\"", "a,\"1", "a,1\nb,2", "a,1\n\n"] {
            assert_eq!(csv_line(parse_line(&s, bad, 5)), 5, "{bad:?}");
        }
    }

    #[test]
    fn unterminated_quote_is_error() {
        assert!(parse("a,\"unterminated\n").is_err());
    }

    #[test]
    fn unicode_fields() {
        let s = schema();
        let t = read_table(&s, "name,age\nmüller,30\n").unwrap();
        let (_, row) = t.rows().next().unwrap();
        assert_eq!(row[0], Value::from("müller"));
    }

    #[test]
    fn ingest_is_counted() {
        let rows = revival_obs::global().counter("csv_ingest_rows_total");
        let bytes = revival_obs::global().counter("csv_ingest_bytes_total");
        let calls = || revival_obs::global().histogram("csv_ingest_us").snapshot().count;
        let (r0, b0, c0) = (rows.get(), bytes.get(), calls());
        let text = "a,b\n1,x\n2,y\n";
        read_table_infer("t", text).unwrap();
        // Other tests ingest concurrently, so these are lower bounds.
        assert!(rows.get() >= r0 + 2);
        assert!(bytes.get() >= b0 + text.len() as u64);
        assert!(calls() > c0);
    }

    // ---- the oracle: the parser this module used before the scanner ----

    /// Parse one CSV record from `input` starting at byte `pos`.
    /// Returns the fields and the new position, or `None` at end of input.
    fn parse_record(input: &str, pos: &mut usize, line: &mut usize) -> Result<Option<Vec<String>>> {
        let bytes = input.as_bytes();
        if *pos >= bytes.len() {
            return Ok(None);
        }
        let mut fields = Vec::new();
        let mut field = String::new();
        let mut in_quotes = false;
        let mut i = *pos;
        loop {
            if i >= bytes.len() {
                if in_quotes {
                    return Err(Error::Csv {
                        line: *line,
                        message: "unterminated quoted field".into(),
                    });
                }
                fields.push(std::mem::take(&mut field));
                *pos = i;
                return Ok(Some(fields));
            }
            let c = bytes[i];
            if in_quotes {
                match c {
                    b'"' => {
                        if i + 1 < bytes.len() && bytes[i + 1] == b'"' {
                            field.push('"');
                            i += 2;
                        } else {
                            in_quotes = false;
                            i += 1;
                        }
                    }
                    b'\n' => {
                        field.push('\n');
                        *line += 1;
                        i += 1;
                    }
                    _ => {
                        // Push the whole UTF-8 char, not just one byte.
                        let ch_len = utf8_len(c);
                        field.push_str(&input[i..i + ch_len]);
                        i += ch_len;
                    }
                }
            } else {
                match c {
                    b'"' => {
                        if !field.is_empty() {
                            return Err(Error::Csv {
                                line: *line,
                                message: "quote inside unquoted field".into(),
                            });
                        }
                        in_quotes = true;
                        i += 1;
                    }
                    b',' => {
                        fields.push(std::mem::take(&mut field));
                        i += 1;
                    }
                    b'\r' => {
                        if i + 1 < bytes.len() && bytes[i + 1] == b'\n' {
                            i += 2;
                        } else {
                            i += 1;
                        }
                        *line += 1;
                        fields.push(std::mem::take(&mut field));
                        *pos = i;
                        return Ok(Some(fields));
                    }
                    b'\n' => {
                        i += 1;
                        *line += 1;
                        fields.push(std::mem::take(&mut field));
                        *pos = i;
                        return Ok(Some(fields));
                    }
                    _ => {
                        let ch_len = utf8_len(c);
                        field.push_str(&input[i..i + ch_len]);
                        i += ch_len;
                    }
                }
            }
        }
    }

    fn utf8_len(first_byte: u8) -> usize {
        match first_byte {
            b if b < 0x80 => 1,
            b if b >= 0xF0 => 4,
            b if b >= 0xE0 => 3,
            _ => 2,
        }
    }

    /// The old `parse`: every record, blank ones dropped.
    fn oracle_parse(input: &str) -> Result<Vec<Vec<String>>> {
        let mut pos = 0;
        let mut line = 1;
        let mut out = Vec::new();
        while let Some(rec) = parse_record(input, &mut pos, &mut line)? {
            if rec.len() == 1 && rec[0].is_empty() {
                continue;
            }
            out.push(rec);
        }
        Ok(out)
    }

    /// The old `read_table_infer`: materialise every record, infer, then
    /// build a `Value` per cell and `push_unchecked` the rows. (It
    /// panicked on a duplicate header; that case is an `Err` here.)
    fn oracle_infer(name: &str, input: &str) -> Result<Table> {
        let fail = |message: &str| Error::Csv { line: 0, message: message.into() };
        let records = oracle_parse(input)?;
        let header = records.first().ok_or(fail("missing header"))?;
        let ncols = header.len();
        if (0..ncols).any(|c| header[..c].contains(&header[c])) {
            return Err(fail("duplicate column"));
        }
        let mut col_ty = vec![Type::Int; ncols];
        let mut seen_any = vec![false; ncols];
        for rec in records.iter().skip(1) {
            for (c, raw) in rec.iter().enumerate().take(ncols) {
                if raw.is_empty() {
                    continue;
                }
                seen_any[c] = true;
                col_ty[c] = match col_ty[c] {
                    Type::Int if raw.parse::<i64>().is_ok() => Type::Int,
                    Type::Int | Type::Float if raw.parse::<f64>().is_ok() => Type::Float,
                    _ => Type::Str,
                };
            }
        }
        for (c, seen) in seen_any.iter().enumerate() {
            if !seen {
                col_ty[c] = Type::Str;
            }
        }
        let attrs =
            header.iter().zip(&col_ty).map(|(h, &ty)| Attribute::new(h.clone(), ty)).collect();
        let mut table = Table::new(Schema::new(name, attrs));
        for rec in records.iter().skip(1) {
            if rec.len() != ncols {
                return Err(fail("arity"));
            }
            let row: Result<Vec<Value>> =
                rec.iter().zip(&col_ty).map(|(raw, ty)| ty.parse(raw)).collect();
            table.push_unchecked(row?);
        }
        Ok(table)
    }

    /// `parse` and `read_table_infer` must agree with their oracles on
    /// `doc`: the same records / the same table, or an error from both.
    fn assert_agrees_with_oracle(doc: &str) {
        match (parse(doc), oracle_parse(doc)) {
            (Ok(new), Ok(old)) => assert_eq!(new, old, "records differ on {doc:?}"),
            (Err(_), Err(_)) => {}
            (new, old) => panic!("scanner {new:?} but oracle {old:?} on {doc:?}"),
        }
        match (read_table_infer("t", doc), oracle_infer("t", doc)) {
            (Ok(new), Ok(old)) => {
                assert_eq!(new.schema(), old.schema(), "schema differs on {doc:?}");
                assert_eq!(new.pool().values(), old.pool().values(), "pool differs on {doc:?}");
                assert_eq!(new.len(), old.len(), "row count differs on {doc:?}");
                for a in 0..new.schema().arity() {
                    assert_eq!(new.col(a), old.col(a), "column {a} differs on {doc:?}");
                }
            }
            (Err(_), Err(_)) => {}
            (new, old) => panic!(
                "read_table_infer {:?} but oracle {:?} on {doc:?}",
                new.map(|t| t.len()),
                old.map(|t| t.len())
            ),
        }
    }

    #[test]
    fn scanner_matches_oracle_on_the_corner_cases() {
        for doc in [
            "",
            "\n",
            "\r",
            "\r\n\r\n",
            "a",
            "a,b",
            "a,b,",
            "a,b,\n",
            ",",
            ",\n,\n",
            "a,b\n\n\n1,2\n\n",
            "a,b\r\n1,2\r\n",
            "a,b\r1,2\r",
            "a,b\n1,2\r\r\n3,4",
            "a\n\"\"\n1\n",
            "a,b\n\"\",\"\"\n",
            "\"\"\n\"\"\r\n\"\"",
            "a\n\"ab\"cd\n",
            "a\n\"ab\"cd\"\n",
            "a\n\"\"x\n",
            "a\n\"\"x\"\n",
            "a\n\"\"\"\"\n",
            "a\n\"\"\"\n",
            "a\n\"x\"\"y\"\"\"\n",
            "a\nx\"y\n",
            "a\n\"é,\r\n\"\"é\"\"\",1\n",
            "a,b\n\"1\",\"2.5\"\n\"3\",4\n",
            "a,a\n1,2\n",
            "a,b\n1\n",
            "a,b\n1,2,3\n",
            "a,b\n1,x\n2.5,\n-,1e3\n",
            "a\n9223372036854775808\n1\n",
            "a\nNaN\ninf\n-0\n",
            "a,b\n01,+1\n1,1\n",
        ] {
            assert_agrees_with_oracle(doc);
        }
    }

    /// The CSV text of a `revival_dirty` table. The generators link the
    /// non-test build of this crate, so their `Table` is a foreign type
    /// in here: cross over cell by cell, as rendered text.
    macro_rules! csv_text_of {
        ($table:expr) => {{
            let foreign = $table;
            let attrs = foreign.schema().attributes().iter();
            let schema = Schema::new(
                "t",
                attrs.map(|a| Attribute::new(a.name.clone(), Type::Str)).collect(),
            );
            let mut table = Table::new(schema);
            for (_, row) in foreign.rows() {
                table.push_unchecked(
                    row.iter().map(|v| Type::Str.parse(&v.render()).unwrap()).collect(),
                );
            }
            write_table(&table)
        }};
    }

    #[test]
    fn scanner_matches_oracle_on_hostile_bytes() {
        use revival_dirty::{customer, hospital};
        const ALPHABET: [char; 9] = [',', '"', '\r', '\n', 'é', 'a', '1', '.', '-'];
        let seeds = [
            csv_text_of!(
                customer::generate(&customer::CustomerConfig {
                    rows: 400,
                    seed: 14,
                    ..Default::default()
                })
                .table
            ),
            csv_text_of!(
                hospital::generate(&hospital::HospitalConfig {
                    rows: 400,
                    seed: 14,
                    ..Default::default()
                })
                .table
            ),
        ];
        let mut rng = StdRng::seed_from_u64(0xC5F);
        for seed in &seeds {
            assert_agrees_with_oracle(seed);
            for _ in 0..1_500 {
                // A window of whole lines, then a few edits on top of each other.
                let lines: Vec<&str> = seed.split_inclusive('\n').collect();
                let from = rng.gen_range(1..lines.len() - 8);
                let take = rng.gen_range(1..8usize);
                let mut doc: Vec<char> =
                    lines[0].chars().chain(lines[from..from + take].concat().chars()).collect();
                for _ in 0..rng.gen_range(1..6usize) {
                    let at = rng.gen_range(0..=doc.len());
                    let run = rng.gen_range(1..5usize);
                    let noise: Vec<char> =
                        (0..run).map(|_| *ALPHABET.choose(&mut rng).expect("non-empty")).collect();
                    match rng.gen_range(0..4u32) {
                        // flip
                        0 if at < doc.len() => doc[at] = noise[0],
                        // truncate
                        1 => doc.truncate(at),
                        // splice over what was there
                        2 => {
                            let end = (at + rng.gen_range(0..4usize)).min(doc.len());
                            doc.splice(at..end, noise);
                        }
                        // splice in
                        _ => {
                            doc.splice(at..at, noise);
                        }
                    }
                }
                assert_agrees_with_oracle(&doc.into_iter().collect::<String>());
            }
        }
        // Pure alphabet soup: every short string's worth of structure.
        for _ in 0..20_000 {
            let len = rng.gen_range(0..12usize);
            let doc: String =
                (0..len).map(|_| *ALPHABET.choose(&mut rng).expect("non-empty")).collect();
            assert_agrees_with_oracle(&doc);
        }
        // Every delimiter at every offset of an 8-byte word, and across
        // the input's last 8 bytes (the word scan's bytewise tail): in a
        // bare field, a quoted one, a document's last, and a single line.
        let s = Schema::builder("r").attr("a", Type::Str).attr("b", Type::Str).build();
        for before in 0..=40 {
            for token in [",", "\"", "\"\"", "\r", "\n", "\r\n", "é"] {
                for after in [0, 1, 7, 8, 9] {
                    let body = format!("{}{token}{}", "a".repeat(before), "b".repeat(after));
                    for doc in [
                        format!("h\n{body}"),
                        format!("h\n{body}\n"),
                        format!("h,i\n\"{body}\",1\n"),
                        format!("h\n\"{body}\""),
                    ] {
                        assert_agrees_with_oracle(&doc);
                    }
                    for line in
                        [format!("{body},x"), format!("x,{body}"), format!("\"{body}\",x\r\n")]
                    {
                        let want: Result<Vec<Value>> = oracle_line(&line).and_then(|rec| {
                            check_arity(&Record { line: 5, fields: rec.len() }, 2)?;
                            rec.iter().map(|raw| Type::Str.parse(raw)).collect()
                        });
                        match (parse_line(&s, &line, 5), want) {
                            (Ok(new), Ok(old)) => assert_eq!(new, old, "row differs on {line:?}"),
                            (Err(_), Err(_)) => {}
                            (new, old) => {
                                panic!("parse_line {new:?} but oracle {old:?} on {line:?}")
                            }
                        }
                    }
                }
            }
        }
    }

    /// The old reading of one appended line: its first non-blank record,
    /// which must end the line.
    fn oracle_line(line: &str) -> Result<Vec<String>> {
        let fail = |message: &str| Error::Csv { line: 5, message: message.into() };
        let (mut pos, mut at) = (0, 5);
        loop {
            match parse_record(line, &mut pos, &mut at)? {
                None => return Err(fail("empty record")),
                Some(rec) if rec.len() == 1 && rec[0].is_empty() => {}
                Some(_) if pos < line.len() => return Err(fail("line break outside quotes")),
                Some(rec) => return Ok(rec),
            }
        }
    }

    #[test]
    fn long_fields_are_scanned_a_word_at_a_time() {
        // Fields of 24–40 bytes, one of them quoted over a line break.
        let doc: String = (0..1_000)
            .map(|r| format!("{0},\"{0}\n{0}\",{0}\n", "x".repeat(24 + r % 17)))
            .collect();
        let fields = 3 * 1_000;
        BYTEWISE.with(|n| n.set(0));
        assert_eq!(parse(&doc).unwrap().len(), 1_000);
        let steps = BYTEWISE.with(|n| n.get());
        assert!(steps <= 8 * fields, "{steps} bytewise steps over {fields} fields");
    }

    /// The per-cell renderer [`write_lines`] replaced: every cell
    /// looked up in the pool and quoted or formatted in place — the
    /// arena writer's oracle.
    fn write_table_per_cell(table: &Table) -> String {
        let attrs = table.schema().attributes();
        let names: Vec<String> = attrs
            .iter()
            .map(|attr| {
                let mut field = String::new();
                write_field(&mut field, &attr.name);
                field
            })
            .collect();
        let mut out = names.join(",") + "\n";
        for slot in table.live_slots() {
            for a in 0..attrs.len() {
                if a > 0 {
                    out.push(',');
                }
                match table.pool().value(table.col(a)[slot]) {
                    Value::Null => {}
                    Value::Str(s) => write_field(&mut out, s),
                    other => write!(out, "{other}").unwrap(),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Hostile tables — quotes, separators, CR/LF, `""` beside `Null`,
    /// `i64` extremes, `-0.0`, `1e21`, non-finite floats, bools,
    /// non-ASCII; rows deleted, cells overwritten, so the pool holds
    /// symbols no live cell does — written the arena way equal the
    /// per-cell oracle, and the streamed file is the same bytes.
    #[test]
    fn arena_writer_equals_the_per_cell_renderer() {
        let strs: Vec<Value> = [
            "plain",
            "",
            "\"",
            "\"\"",
            "a,b",
            ",",
            "line\nbreak",
            "cr\ronly",
            "crlf\r\n",
            "\n",
            " padded ",
            "müller, \"é\"",
            "日本語",
            "NULL",
            "-0",
            "1e21",
            "true",
        ]
        .into_iter()
        .map(Value::from)
        .chain([Value::Null])
        .collect();
        let ints: Vec<Value> = [i64::MIN, i64::MIN + 1, -1, 0, 1, 42, i64::MAX]
            .into_iter()
            .map(Value::Int)
            .chain([Value::Null])
            .collect();
        let floats: Vec<Value> = [
            0.0,
            -0.0,
            1e21,
            1e-7,
            -1.5,
            0.1,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NAN,
        ]
        .into_iter()
        .map(Value::Float)
        .chain([Value::Null])
        .collect();
        let bools = vec![Value::Bool(true), Value::Bool(false), Value::Null];
        let s = Schema::builder("hostile")
            .attr("s", Type::Str)
            .attr("n", Type::Int)
            .attr("x", Type::Float)
            .attr("b", Type::Bool)
            .attr("t", Type::Str)
            .attr("m", Type::Int)
            .build();
        let domains = [&strs, &ints, &floats, &bools, &strs, &ints];
        let path =
            std::env::temp_dir().join(format!("revival-csv-arena-{}.csv", std::process::id()));
        let mut rng = StdRng::seed_from_u64(0xA4E7A);
        let mut unheld = 0;
        for round in 0..300 {
            let mut t = Table::new(s.clone());
            let rows = rng.gen_range(0..40usize);
            for _ in 0..rows {
                let row = domains.iter().map(|d| d.choose(&mut rng).unwrap().clone()).collect();
                t.push(row).unwrap();
            }
            for id in 0..rows as u64 {
                match rng.gen_range(0..6u32) {
                    0 => drop(t.delete(crate::TupleId(id)).unwrap()),
                    1 => {
                        let a = rng.gen_range(0..domains.len());
                        let v = if rng.gen_bool(0.5) {
                            domains[a].choose(&mut rng).unwrap().clone()
                        } else if a == 0 || a == 4 {
                            Value::str(format!("fresh \"{round}\",{id}"))
                        } else {
                            domains[a].choose(&mut rng).unwrap().clone()
                        };
                        t.set_cell(crate::TupleId(id), a, v).unwrap();
                    }
                    _ => {}
                }
            }
            let held: std::collections::HashSet<Sym> = t
                .live_slots()
                .flat_map(|slot| (0..6).map(move |a| (slot, a)))
                .map(|(slot, a)| t.col(a)[slot])
                .collect();
            unheld += t.pool().len() - held.len();
            let want = write_table_per_cell(&t);
            assert_eq!(write_table(&t), want, "round {round}");
            write_table_path(&t, &path).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), want.as_bytes(), "round {round}");
            // Drained in chunks of whole lines, however small.
            let chunk = rng.gen_range(1..200usize);
            let (mut out, mut drained) = (String::new(), String::new());
            write_lines(&t, &mut out, chunk, |out| {
                assert!(out.len() >= chunk && out.ends_with('\n'), "round {round}");
                drained.push_str(out);
                out.clear();
                Ok(())
            })
            .unwrap();
            assert_eq!(drained + &out, want, "round {round}");
        }
        // A table many write chunks long, streamed.
        let mut t = Table::new(s.clone());
        for _ in 0..20_000 {
            t.push(domains.iter().map(|d| d.choose(&mut rng).unwrap().clone()).collect()).unwrap();
        }
        let want = write_table_per_cell(&t);
        assert!(want.len() > 8 * WRITE_CHUNK, "{} bytes", want.len());
        assert_eq!(write_table(&t), want);
        write_table_path(&t, &path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), want.as_bytes());
        std::fs::remove_file(&path).unwrap();
        assert!(unheld > 300, "{unheld}: the pools should hold symbols no live cell does");
    }
}
