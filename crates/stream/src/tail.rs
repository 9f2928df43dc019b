//! Tailing a growing CSV file: turn appended byte chunks into rows.
//!
//! `semandaq watch` polls a file's length and feeds whatever grew to a
//! [`CsvTail`], which buffers the trailing partial line (writers rarely
//! append in whole-line units) and parses every completed line against
//! the schema via [`csv::parse_line`]. Tail mode is line-oriented: it
//! cuts the stream at every `\n` before parsing, so quoting is honoured
//! within a line but a newline inside quotes is not supported — the
//! line it cuts short fails as an unterminated quoted field.

use revival_relation::{csv, Result, Schema, Value};

/// Incremental line-oriented CSV parser for appended file chunks.
pub struct CsvTail {
    schema: Schema,
    /// Trailing bytes of the last chunk that did not end in `\n`.
    partial: String,
    /// 1-based line number of the next completed line (for errors).
    line: usize,
}

impl CsvTail {
    /// A tail starting *after* the header — the caller has already
    /// loaded the base table, so every completed line is a row.
    /// `next_line` is the 1-based file line the tail starts at.
    pub fn new(schema: Schema, next_line: usize) -> Self {
        CsvTail { schema, partial: String::new(), line: next_line }
    }

    /// Bytes currently buffered waiting for their newline.
    pub fn pending(&self) -> &str {
        &self.partial
    }

    /// Feed an appended chunk; returns the rows of every line the chunk
    /// completed. Blank lines are skipped.
    pub fn feed(&mut self, chunk: &str) -> Result<Vec<Vec<Value>>> {
        self.partial.push_str(chunk);
        let mut rows = Vec::new();
        while let Some(nl) = self.partial.find('\n') {
            let line: String = self.partial.drain(..=nl).collect();
            let line = line.trim_end_matches(['\n', '\r']);
            if !line.is_empty() {
                rows.push(csv::parse_line(&self.schema, line, self.line)?);
            }
            self.line += 1;
        }
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revival_relation::Type;

    fn schema() -> Schema {
        Schema::builder("r").attr("name", Type::Str).attr("age", Type::Int).build()
    }

    #[test]
    fn whole_and_partial_lines() {
        let mut tail = CsvTail::new(schema(), 2);
        let rows = tail.feed("alice,30\nbo").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::from("alice"));
        assert_eq!(tail.pending(), "bo");
        let rows = tail.feed("b,41\n").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0], vec![Value::from("bob"), Value::Int(41)]);
        assert!(tail.pending().is_empty());
    }

    #[test]
    fn quoted_fields_and_crlf() {
        let mut tail = CsvTail::new(schema(), 2);
        let rows = tail.feed("\"smith, jane\",50\r\n\n").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::from("smith, jane"));
    }

    #[test]
    fn bad_rows_error_with_line_number() {
        let mut tail = CsvTail::new(schema(), 7);
        let err = tail.feed("alice,notanint\n").unwrap_err();
        assert!(err.to_string().contains('7'), "{err}");
        // Arity errors too.
        let mut tail = CsvTail::new(schema(), 2);
        assert!(tail.feed("only-one-field\n").is_err());
    }

    #[test]
    fn many_lines_in_one_chunk() {
        let mut tail = CsvTail::new(schema(), 2);
        let rows = tail.feed("a,1\nb,2\nc,3\n").unwrap();
        assert_eq!(rows.len(), 3);
    }
}
