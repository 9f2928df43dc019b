//! The `semandaq serve` wire protocol: line-delimited JSON over TCP.
//!
//! One request per line, one response per line, both flat JSON objects
//! whose values are strings, integers or booleans. The workspace is
//! offline (no serde), so this module carries its own ~150-line JSON
//! subset: objects, strings with the standard escapes, 64-bit integers,
//! booleans and null — exactly what the flat protocol needs, and small
//! enough to audit.
//!
//! ```text
//! → {"cmd":"register","table":"customer","csv":"cc,zip\n44,EH8\n","cfds":"customer([zip] -> [cc])"}
//! ← {"ok":true,"rows":1,"cfds":1,"violations":0}
//! → {"cmd":"append","table":"customer","row":"44,G1"}
//! ← {"ok":true,"tuple":1,"violations":1}
//! → {"cmd":"report","max":10}
//! ← {"ok":true,"violations":1,"text":"1 violation(s); ..."}
//! ```
//!
//! The session keeps one grouping state per embedded FD however the
//! suite spells it, and counts and reports per CFD as written; a client
//! that wants one CFD per embedded FD writes one block. `count` and
//! `report` always answer the live session. Unknown fields are ignored.
//!
//! `discover` mines a CFD suite from a registered table's *current*
//! state through the parallel discovery engine and answers it in
//! `parse_cfds` syntax; `"register":true` additionally installs the
//! vetted suite as the table's constraints — the profiling loop of the
//! paper (discover → vet → detect) without leaving the session.

use revival_obs::write_json_string;
use std::fmt::Write as _;

/// A flat JSON scalar.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Int(i64),
    Str(String),
}

impl JsonValue {
    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => {
                let _ = write!(out, "{i}");
            }
            JsonValue::Str(s) => write_json_string(out, s),
        }
    }
}

/// Parse one flat JSON object (`{"k": scalar, ...}`).
pub fn parse_object(line: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let mut p = Parser { bytes: line.as_bytes(), pos: 0 };
    p.skip_ws();
    p.expect(b'{')?;
    let mut fields = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.parse_string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.parse_value()?;
            fields.push((key, value));
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => return Err(format!("expected `,` or `}}`, got {other:?}")),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err("trailing bytes after JSON object".into());
    }
    Ok(fields)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!("expected `{}`, got {other:?}", want as char)),
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_lit("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_lit("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_int(),
            other => Err(format!("unsupported JSON value starting with {other:?}")),
        }
    }

    fn parse_lit(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("bad literal, expected `{lit}`"))
        }
    }

    fn parse_int(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        // Floats are outside the protocol subset — reject rather than
        // silently truncate.
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err("floats are not part of the protocol subset".into());
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(JsonValue::Int)
            .ok_or_else(|| "bad integer".into())
    }

    fn parse_hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or("truncated \\u escape")?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.pos += 4;
        Ok(code)
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self.next().ok_or("unterminated string")?;
            match b {
                b'"' => return Ok(out),
                b'\\' => match self.next().ok_or("unterminated escape")? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let code = self.parse_hex4()?;
                        let scalar = match code {
                            // High surrogate: a `\uDC00..` low surrogate
                            // must follow (the JSON astral-plane encoding
                            // standard clients emit).
                            0xd800..=0xdbff => {
                                if self.next() != Some(b'\\') || self.next() != Some(b'u') {
                                    return Err("unpaired high surrogate".into());
                                }
                                let low = self.parse_hex4()?;
                                if !(0xdc00..=0xdfff).contains(&low) {
                                    return Err("unpaired high surrogate".into());
                                }
                                0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00)
                            }
                            0xdc00..=0xdfff => return Err("unpaired low surrogate".into()),
                            c => c,
                        };
                        out.push(
                            char::from_u32(scalar).ok_or_else(|| "bad \\u escape".to_string())?,
                        );
                    }
                    other => return Err(format!("unknown escape `\\{}`", other as char)),
                },
                // Multi-byte UTF-8 sequences pass through verbatim; the
                // input came from a &str, so they are well-formed.
                b if b < 0x80 => out.push(b as char),
                b => {
                    let len = match b {
                        b if b >= 0xf0 => 4,
                        b if b >= 0xe0 => 3,
                        _ => 2,
                    };
                    let start = self.pos - 1;
                    let s = std::str::from_utf8(&self.bytes[start..start + len])
                        .map_err(|_| "invalid UTF-8".to_string())?;
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }
}

/// One client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Register (or replace) a table from CSV text plus the CFD suite
    /// constraining it.
    Register { table: String, csv: String, cfds: String },
    /// Attach CINDs over already-registered relations.
    Cinds { text: String },
    /// Append one CSV-encoded row to a relation.
    Append { table: String, row: String },
    /// Delete a live tuple.
    Delete { table: String, tuple: u64 },
    /// Overwrite one cell (`value` is parsed by the attribute's type).
    Update { table: String, tuple: u64, attr: String, value: String },
    /// Live violation count only (cheap).
    Count,
    /// Full live report, described (capped at `max` lines).
    Report { max: usize },
    /// Repair the tuples appended to `table` since registration or the
    /// last repair — the live ids from the relation's checkpointed
    /// baseline up — and move the baseline past them: in place against
    /// the base when there is more base than delta, else the whole
    /// relation through one batch repair
    /// ([`crate::DeltaSession::repair`]). Replies `tuples_edited`,
    /// `cells_changed` and the live `violations`.
    Repair { table: String },
    /// Mine a CFD suite from the session's current state of `table`
    /// (the discovery engine layer): level-wise FDs and conditional
    /// CFDs at `confidence_pct`/100 minimum confidence, constant rules,
    /// vetting. With `register`, the vetted suite replaces the table's
    /// registered CFDs (the discover → vet → detect loop, in place).
    /// `confidence_pct` is an integer percentage because the protocol
    /// subset carries no floats.
    Discover {
        table: String,
        min_support: usize,
        max_lhs: usize,
        confidence_pct: u8,
        register: bool,
    },
    /// Checkpoint now: durably snapshot every shard to the state
    /// directory and truncate the WALs. Without a state directory there
    /// is nothing to write.
    Checkpoint,
    /// Fetch the server's observability registry: uptime, plus the
    /// full metric set as a JSON string (`json`) and Prometheus-style
    /// text exposition (`text`). Integer-valued throughout — the
    /// protocol subset carries no floats. With `window_secs > 0` the
    /// response additionally carries a `windowed` field: counter rates
    /// and histogram percentiles computed over roughly the last
    /// `window_secs` seconds (from the server's snapshot ring) instead
    /// of since process start.
    Metrics { window_secs: u64 },
    /// Fetch the per-request profiles of the last `last` requests the
    /// server answered (newest first) from its in-memory profile ring.
    Profile { last: u64 },
    /// Stop the server after answering.
    Shutdown,
}

fn get<'a>(fields: &'a [(String, JsonValue)], key: &str) -> Option<&'a JsonValue> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn get_str(fields: &[(String, JsonValue)], key: &str) -> Result<String, String> {
    match get(fields, key) {
        Some(JsonValue::Str(s)) => Ok(s.clone()),
        Some(_) => Err(format!("field `{key}` must be a string")),
        None => Err(format!("missing field `{key}`")),
    }
}

fn get_bool(fields: &[(String, JsonValue)], key: &str) -> Result<bool, String> {
    match get(fields, key) {
        None => Ok(false),
        Some(JsonValue::Bool(b)) => Ok(*b),
        Some(_) => Err(format!("field `{key}` must be a boolean")),
    }
}

fn get_int(fields: &[(String, JsonValue)], key: &str) -> Result<i64, String> {
    match get(fields, key) {
        Some(JsonValue::Int(i)) => Ok(*i),
        Some(_) => Err(format!("field `{key}` must be an integer")),
        None => Err(format!("missing field `{key}`")),
    }
}

impl Request {
    /// Parse one request line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let fields = parse_object(line.trim_end())?;
        let cmd = get_str(&fields, "cmd")?;
        match cmd.as_str() {
            "register" => Ok(Request::Register {
                table: get_str(&fields, "table")?,
                csv: get_str(&fields, "csv")?,
                // Only a *missing* suite defaults to empty; a wrong-typed
                // one must error, not silently register unconstrained.
                cfds: match get(&fields, "cfds") {
                    None => String::new(),
                    Some(_) => get_str(&fields, "cfds")?,
                },
            }),
            "cinds" => Ok(Request::Cinds { text: get_str(&fields, "text")? }),
            "append" => Ok(Request::Append {
                table: get_str(&fields, "table")?,
                row: get_str(&fields, "row")?,
            }),
            "delete" => Ok(Request::Delete {
                table: get_str(&fields, "table")?,
                tuple: get_int(&fields, "tuple")? as u64,
            }),
            "update" => Ok(Request::Update {
                table: get_str(&fields, "table")?,
                tuple: get_int(&fields, "tuple")? as u64,
                attr: get_str(&fields, "attr")?,
                value: get_str(&fields, "value")?,
            }),
            "count" => Ok(Request::Count),
            "report" => {
                Ok(Request::Report { max: get_int(&fields, "max").unwrap_or(25).max(0) as usize })
            }
            "repair" => Ok(Request::Repair { table: get_str(&fields, "table")? }),
            "discover" => {
                let int_or = |key: &str, default: i64| match get(&fields, key) {
                    None => Ok(default),
                    Some(_) => get_int(&fields, key),
                };
                let pct = int_or("confidence_pct", 100)?;
                if !(0..=100).contains(&pct) {
                    return Err("field `confidence_pct` must be 0..=100".into());
                }
                Ok(Request::Discover {
                    table: get_str(&fields, "table")?,
                    min_support: int_or("min_support", 3)?.max(0) as usize,
                    max_lhs: int_or("max_lhs", 2)?.max(0) as usize,
                    confidence_pct: pct as u8,
                    register: get_bool(&fields, "register")?,
                })
            }
            "checkpoint" => Ok(Request::Checkpoint),
            "metrics" => Ok(Request::Metrics {
                // Absent field means "totals since start" — keeps the
                // bare `{"cmd":"metrics"}` form every existing client
                // sends valid.
                window_secs: match get(&fields, "window_secs") {
                    None => 0,
                    Some(_) => get_int(&fields, "window_secs")?.max(0) as u64,
                },
            }),
            "profile" => Ok(Request::Profile {
                last: match get(&fields, "last") {
                    None => 8,
                    Some(_) => get_int(&fields, "last")?.max(0) as u64,
                },
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!(
                "unknown cmd `{other}` (register|cinds|append|delete|update|count|report\
                 |repair|discover|checkpoint|metrics|profile|shutdown)"
            )),
        }
    }

    /// Serialise — the test client and `watch` remote mode use this.
    pub fn to_line(&self) -> String {
        let mut fields: Vec<(&str, JsonValue)> = Vec::new();
        let cmd = match self {
            Request::Register { table, csv, cfds } => {
                fields.push(("table", JsonValue::Str(table.clone())));
                fields.push(("csv", JsonValue::Str(csv.clone())));
                fields.push(("cfds", JsonValue::Str(cfds.clone())));
                "register"
            }
            Request::Cinds { text } => {
                fields.push(("text", JsonValue::Str(text.clone())));
                "cinds"
            }
            Request::Append { table, row } => {
                fields.push(("table", JsonValue::Str(table.clone())));
                fields.push(("row", JsonValue::Str(row.clone())));
                "append"
            }
            Request::Delete { table, tuple } => {
                fields.push(("table", JsonValue::Str(table.clone())));
                fields.push(("tuple", JsonValue::Int(*tuple as i64)));
                "delete"
            }
            Request::Update { table, tuple, attr, value } => {
                fields.push(("table", JsonValue::Str(table.clone())));
                fields.push(("tuple", JsonValue::Int(*tuple as i64)));
                fields.push(("attr", JsonValue::Str(attr.clone())));
                fields.push(("value", JsonValue::Str(value.clone())));
                "update"
            }
            Request::Count => "count",
            Request::Report { max } => {
                fields.push(("max", JsonValue::Int(*max as i64)));
                "report"
            }
            Request::Repair { table } => {
                fields.push(("table", JsonValue::Str(table.clone())));
                "repair"
            }
            Request::Discover { table, min_support, max_lhs, confidence_pct, register } => {
                fields.push(("table", JsonValue::Str(table.clone())));
                fields.push(("min_support", JsonValue::Int(*min_support as i64)));
                fields.push(("max_lhs", JsonValue::Int(*max_lhs as i64)));
                fields.push(("confidence_pct", JsonValue::Int(*confidence_pct as i64)));
                if *register {
                    fields.push(("register", JsonValue::Bool(true)));
                }
                "discover"
            }
            Request::Checkpoint => "checkpoint",
            Request::Metrics { window_secs } => {
                if *window_secs > 0 {
                    fields.push(("window_secs", JsonValue::Int(*window_secs as i64)));
                }
                "metrics"
            }
            Request::Profile { last } => {
                fields.push(("last", JsonValue::Int(*last as i64)));
                "profile"
            }
            Request::Shutdown => "shutdown",
        };
        let mut out = String::from("{");
        write_json_string(&mut out, "cmd");
        out.push(':');
        write_json_string(&mut out, cmd);
        for (k, v) in fields {
            out.push(',');
            write_json_string(&mut out, k);
            out.push(':');
            v.write(&mut out);
        }
        out.push_str("}\n");
        out
    }

    /// The request's verb name — the `verb="..."` label on the serve
    /// tier's per-request metrics.
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Register { .. } => "register",
            Request::Cinds { .. } => "cinds",
            Request::Append { .. } => "append",
            Request::Delete { .. } => "delete",
            Request::Update { .. } => "update",
            Request::Count => "count",
            Request::Report { .. } => "report",
            Request::Repair { .. } => "repair",
            Request::Discover { .. } => "discover",
            Request::Checkpoint => "checkpoint",
            Request::Metrics { .. } => "metrics",
            Request::Profile { .. } => "profile",
            Request::Shutdown => "shutdown",
        }
    }
}

/// One server response (`{"ok":true,...}` / `{"ok":false,"error":..}`).
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    fields: Vec<(String, JsonValue)>,
}

impl Response {
    /// A success response.
    pub fn ok() -> Response {
        Response { fields: vec![("ok".into(), JsonValue::Bool(true))] }
    }

    /// An error response.
    pub fn err(message: impl std::fmt::Display) -> Response {
        Response {
            fields: vec![
                ("ok".into(), JsonValue::Bool(false)),
                ("error".into(), JsonValue::Str(message.to_string())),
            ],
        }
    }

    /// Attach an integer field.
    pub fn with_int(mut self, key: &str, value: i64) -> Response {
        self.fields.push((key.into(), JsonValue::Int(value)));
        self
    }

    /// Attach a string field.
    pub fn with_str(mut self, key: &str, value: impl Into<String>) -> Response {
        self.fields.push((key.into(), JsonValue::Str(value.into())));
        self
    }

    /// Did the request succeed?
    pub fn is_ok(&self) -> bool {
        matches!(get(&self.fields, "ok"), Some(JsonValue::Bool(true)))
    }

    /// Read back an integer field.
    pub fn int(&self, key: &str) -> Option<i64> {
        match get(&self.fields, key) {
            Some(JsonValue::Int(i)) => Some(*i),
            _ => None,
        }
    }

    /// Read back a string field.
    pub fn str(&self, key: &str) -> Option<&str> {
        match get(&self.fields, key) {
            Some(JsonValue::Str(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Parse a response line (the test client side).
    pub fn parse(line: &str) -> Result<Response, String> {
        Ok(Response { fields: parse_object(line.trim_end())? })
    }

    /// Serialise as one newline-terminated line.
    pub fn to_line(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(&mut out, k);
            out.push(':');
            v.write(&mut out);
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip() {
        let reqs = vec![
            Request::Register {
                table: "customer".into(),
                csv: "cc,zip\n44,\"EH8, 9AB\"\n".into(),
                cfds: "customer([zip] -> [cc])".into(),
            },
            Request::Cinds { text: "a(x;) <= b(y;)".into() },
            Request::Append { table: "customer".into(), row: "44,G1".into() },
            Request::Delete { table: "customer".into(), tuple: 3 },
            Request::Update {
                table: "customer".into(),
                tuple: 3,
                attr: "zip".into(),
                value: "EH8".into(),
            },
            Request::Count,
            Request::Report { max: 10 },
            Request::Checkpoint,
            Request::Repair { table: "customer".into() },
            Request::Discover {
                table: "customer".into(),
                min_support: 4,
                max_lhs: 3,
                confidence_pct: 90,
                register: true,
            },
            Request::Metrics { window_secs: 0 },
            Request::Metrics { window_secs: 30 },
            Request::Profile { last: 5 },
            Request::Shutdown,
        ];
        for req in reqs {
            let line = req.to_line();
            assert!(line.ends_with('\n'));
            assert_eq!(Request::parse(&line).unwrap(), req, "line: {line}");
        }
    }

    #[test]
    fn responses_roundtrip() {
        let resp = Response::ok().with_int("violations", 3).with_str("text", "a\nb\t\"c\"");
        let line = resp.to_line();
        let back = Response::parse(&line).unwrap();
        assert!(back.is_ok());
        assert_eq!(back.int("violations"), Some(3));
        assert_eq!(back.str("text"), Some("a\nb\t\"c\""));
        let err = Response::parse(&Response::err("boom").to_line()).unwrap();
        assert!(!err.is_ok());
        assert_eq!(err.str("error"), Some("boom"));
    }

    #[test]
    fn escapes_and_unicode() {
        let fields = parse_object(r#"{"a":"müller","b":-12,"c":true,"d":null}"#).unwrap();
        assert_eq!(fields[0].1, JsonValue::Str("müller".into()));
        assert_eq!(fields[1].1, JsonValue::Int(-12));
        assert_eq!(fields[2].1, JsonValue::Bool(true));
        assert_eq!(fields[3].1, JsonValue::Null);
        // Raw multi-byte characters survive without escaping.
        let fields = parse_object("{\"k\":\"müller\"}").unwrap();
        assert_eq!(fields[0].1, JsonValue::Str("müller".into()));
    }

    #[test]
    fn surrogate_pairs_decode_and_unpaired_reject() {
        let fields = parse_object(r#"{"k":"😀"}"#).unwrap();
        assert_eq!(fields[0].1, JsonValue::Str("😀".into()));
        assert!(parse_object(r#"{"k":"\ud83d"}"#).is_err());
        assert!(parse_object(r#"{"k":"\ud83dx"}"#).is_err());
        assert!(parse_object(r#"{"k":"\ude00"}"#).is_err());
    }

    #[test]
    fn register_cfds_missing_defaults_but_wrong_type_errors() {
        let ok = Request::parse(r#"{"cmd":"register","table":"t","csv":"a\n1\n"}"#).unwrap();
        assert_eq!(
            ok,
            Request::Register { table: "t".into(), csv: "a\n1\n".into(), cfds: String::new() }
        );
        assert!(Request::parse(r#"{"cmd":"register","table":"t","csv":"a\n","cfds":123}"#).is_err());
    }

    #[test]
    fn discover_defaults_and_bounds() {
        let d = Request::parse(r#"{"cmd":"discover","table":"t"}"#).unwrap();
        assert_eq!(
            d,
            Request::Discover {
                table: "t".into(),
                min_support: 3,
                max_lhs: 2,
                confidence_pct: 100,
                register: false,
            }
        );
        assert!(Request::parse(r#"{"cmd":"discover","table":"t","confidence_pct":101}"#).is_err());
        assert!(Request::parse(r#"{"cmd":"discover","table":"t","register":"yes"}"#).is_err());
        assert!(Request::parse(r#"{"cmd":"discover"}"#).is_err());
    }

    #[test]
    fn metrics_and_profile_defaults() {
        // The bare form every pre-windowing client sends still parses.
        let m = Request::parse(r#"{"cmd":"metrics"}"#).unwrap();
        assert_eq!(m, Request::Metrics { window_secs: 0 });
        // And serialises back without the field.
        assert_eq!(m.to_line(), "{\"cmd\":\"metrics\"}\n");
        let m = Request::parse(r#"{"cmd":"metrics","window_secs":10}"#).unwrap();
        assert_eq!(m, Request::Metrics { window_secs: 10 });
        let p = Request::parse(r#"{"cmd":"profile"}"#).unwrap();
        assert_eq!(p, Request::Profile { last: 8 });
        assert!(Request::parse(r#"{"cmd":"metrics","window_secs":"x"}"#).is_err());
    }

    #[test]
    fn malformed_lines_rejected() {
        for bad in [
            "",
            "{",
            "{\"cmd\"}",
            "{\"cmd\":\"count\"} trailing",
            "{\"cmd\":\"count\",}",
            "{\"cmd\":3.5}",
            "{\"cmd\":\"nope\"}",
            "{\"cmd\":\"append\"}",
            "[1,2]",
        ] {
            assert!(Request::parse(bad).is_err(), "accepted: {bad}");
        }
    }
}
