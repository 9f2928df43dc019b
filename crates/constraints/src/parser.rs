//! Textual constraint syntax — the notation the paper itself uses.
//!
//! `#` outside quotes starts a comment and blank lines are skipped. A
//! constant is written `'c'` with an embedded quote doubled
//! (`'o''brien'`) and ends on the line it starts on; the quotes are
//! optional where the text cannot be taken for syntax. Every constant
//! is parsed according to its attribute's declared
//! [`revival_relation::Type`].
//!
//! **CFDs, line form** (§3, first example of the paper) — one line, one
//! tableau row:
//!
//! ```text
//! customer([cc='44', zip] -> [street])
//! customer([cc='01', ac='908', phn] -> [street, city='mh', zip])
//! ```
//!
//! A plain attribute is a wildcard pattern, `attr='c'` a constant,
//! `attr!='c'` and `attr in ('a', 'b')` the eCFD forms. Each RHS
//! attribute yields one normal-form single-row [`Cfd`] (so the second
//! line above produces three CFDs).
//!
//! **CFDs, block form** — the pattern tableau as the paper prints it, a
//! relation under its embedded FD: the head once with plain attributes
//! and one RHS attribute, then one tableau row per line, LHS cells and
//! the RHS cell separated by `||`:
//!
//! ```text
//! customer([cc, zip] -> [street]) {
//!   '44', _ || _
//!   '31', in ('1011', '1012') || !='unknown'
//! }
//! ```
//!
//! A block parses to **one** [`Cfd`] holding its rows in file order,
//! nothing merged or deduplicated. Comments and blank lines may sit
//! between rows; `{` ends the head's line and `}` stands alone.
//!
//! ```text
//! suite := (line | block)*
//! line  := rel "(" "[" item ("," item)* "]" "->" "[" item ("," item)* "]" ")"
//! item  := attr | attr "=" const | attr "!=" const | attr " in " list
//! block := rel "(" "[" attr ("," attr)* "]" "->" "[" attr "]" ")" "{" NL (row NL)* "}"
//! row   := cell ("," cell)* "||" cell
//! cell  := "_" | const | "!=" const | "in" list
//! list  := "(" const ("," const)* ")"
//! ```
//!
//! [`write_cfd`] renders a single-row CFD in the line form and any other
//! in the block form, so `parse_cfds(suite_to_text(suite)) == suite`
//! exactly.
//!
//! **CINDs** (§3, second example):
//!
//! ```text
//! cd(album, price; genre='a-book') <= book(title, price; format='audio')
//! ```
//!
//! Attributes before `;` are the correspondence lists (positionally
//! paired); `attr='c'` items after `;` are pattern conditions.
//!
//! A quoted constant ends at its closing quote: text after it is an
//! error, as is a second `||` in a block row — never one garbled
//! constant. A block row, the form a mined suite is nearly all of, is
//! scanned once, left to right (`scan_row`): one pass over its bytes
//! finds the comment, the `||`, the cells and the quotes in each, and a
//! cell whose only quotes are the pair around it is its constant
//! without a second look. Line-form items and CIND lines run on the
//! piecewise scanner (`items`, `split_unquoted`, `unquote`). Both hand
//! out borrowed pieces of the line: nothing is allocated per cell or
//! item, and a block's attribute names are resolved once, at its head.
//! String constants are interned per parse call: a mined
//! suite repeats a few hundred distinct values across tens of thousands
//! of cells, and every cell spelling the same text shares one
//! `Arc<str>`. (Integer, float and boolean constants own no heap.)

use crate::cfd::Cfd;
use crate::cind::{Cind, PatternCond};
use crate::pattern::{PatternRow, PatternValue};
use revival_relation::groupby::FoldState;
use revival_relation::{AttrId, Error, Result, Schema, Type, Value};
use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// One parse call's string constants, by their unescaped text: the
/// `Arc` every cell spelling that text shares.
type Strings = HashSet<Arc<str>, FoldState>;

/// Parse a suite of CFDs over one schema.
pub fn parse_cfds(text: &str, schema: &Schema) -> Result<Vec<Cfd>> {
    parse_suite(text, |rel| {
        if rel == schema.name() {
            return Ok(schema);
        }
        let name = schema.name();
        Err(perr(format!("constraint relation `{rel}` does not match schema `{name}`")))
    })
}

/// The relations a suite's line-form CFDs and block heads name, each
/// once, in the order they first appear — what a caller that holds no
/// schema yet can name its table by. A line that does not scan is
/// skipped: [`parse_cfds`] reports it.
pub fn suite_relations(text: &str) -> Vec<&str> {
    let mut names: Vec<&str> = Vec::new();
    let mut in_block = false;
    for line in text.lines().filter_map(|raw| content(raw).ok()) {
        if in_block {
            in_block = line != "}";
        } else if let Some((relation, _)) = line.split_once('(') {
            in_block = line.ends_with('{');
            let relation = relation.trim();
            if !names.contains(&relation) {
                names.push(relation);
            }
        }
    }
    names
}

/// Parse a CFD suite that may span several relations: each line or
/// block resolves against the schema its `relation(...)` prefix names.
pub fn parse_cfds_multi(text: &str, schemas: &[Schema]) -> Result<Vec<Cfd>> {
    parse_suite(text, |rel| find_schema(schemas, rel))
}

/// Parse a suite of CINDs over a set of schemas (resolved by name).
pub fn parse_cinds(text: &str, schemas: &[Schema]) -> Result<Vec<Cind>> {
    let (mut out, mut strings) = (Vec::new(), Strings::default());
    for (at, raw) in text.lines().enumerate() {
        let line = content(raw).map_err(|e| annotate(e, at + 1))?;
        if !line.is_empty() {
            let cind = parse_cind_line(line, schemas, &mut strings);
            out.push(cind.map_err(|e| annotate(e, at + 1))?);
        }
    }
    Ok(out)
}

fn find_schema<'s>(schemas: &'s [Schema], name: &str) -> Result<&'s Schema> {
    schemas
        .iter()
        .find(|s| s.name() == name)
        .ok_or_else(|| Error::UnknownRelation(name.to_string()))
}

/// A block whose `}` has not been read yet.
struct Block<'s> {
    /// The CFD the rows go to.
    cfd: Cfd,
    schema: &'s Schema,
    /// Line of the head, for the errors that point back at it.
    opened: usize,
}

fn parse_suite<'s>(text: &str, schema_of: impl Fn(&str) -> Result<&'s Schema>) -> Result<Vec<Cfd>> {
    let mut out = Vec::new();
    let mut block: Option<Block<'s>> = None;
    let (mut strings, mut cells) = (Strings::default(), Vec::new());
    for (at, raw) in text.lines().enumerate() {
        parse_suite_line(raw, at + 1, &mut block, &mut out, &mut strings, &mut cells, &schema_of)
            .map_err(|e| annotate(e, at + 1))?;
    }
    match block {
        Some(open) => Err(annotate(perr("block is never closed (missing `}`)"), open.opened)),
        None => Ok(out),
    }
}

/// One raw line of a suite. Inside a block the line is scanned once as
/// a row ([`scan_row`]), whatever it turns out to be; outside, it is a
/// line-form CFD or a block head.
fn parse_suite_line<'s, 't>(
    raw: &'t str,
    lineno: usize,
    block: &mut Option<Block<'s>>,
    out: &mut Vec<Cfd>,
    strings: &mut Strings,
    cells: &mut Vec<Cell<'t>>,
    schema_of: &impl Fn(&str) -> Result<&'s Schema>,
) -> Result<()> {
    if let Some(open) = block {
        let row = scan_row(raw, cells)?;
        match row.content {
            "" => {}
            "}" => out.extend(block.take().map(|b| b.cfd)),
            line if line.ends_with('{') => {
                return Err(perr(format!(
                    "nested `{{`: the block opened at line {} is still open",
                    open.opened
                )));
            }
            _ => {
                let fd = (open.cfd.lhs.as_slice(), open.cfd.rhs);
                let tp = parse_row(&row, cells, fd, open.schema, strings)?;
                open.cfd.tableau.push(tp);
            }
        }
        return Ok(());
    }
    let line = content(raw)?;
    if line.is_empty() {
        return Ok(());
    }
    if line == "}" {
        return Err(perr("`}` without an open block"));
    } else if let Some(head) = line.strip_suffix('{') {
        *block = Some(parse_block_head(head.trim_end(), lineno, schema_of)?);
    } else {
        parse_cfd_line(line, out, strings, schema_of)?;
    }
    Ok(())
}

/// A line without its comment and surrounding blanks. A quote still open
/// at the end of the line is an error here, for every form: no constant
/// spans lines.
fn content(line: &str) -> Result<&str> {
    // `#` outside quotes starts a comment.
    let mut in_quote = false;
    let comment = line.bytes().position(|b| {
        in_quote ^= b == b'\'';
        b == b'#' && !in_quote
    });
    match comment {
        Some(at) => Ok(line[..at].trim()),
        None if in_quote => {
            Err(perr("unterminated quote: a constant ends on the line it starts on"))
        }
        None => Ok(line.trim()),
    }
}

/// Stamp a parse error with the line it was found on.
fn annotate(e: Error, line: usize) -> Error {
    match e {
        Error::Constraint { message, .. } => Error::Constraint { line, message },
        other => other,
    }
}

fn perr(msg: impl Into<String>) -> Error {
    Error::Constraint { line: 0, message: msg.into() }
}

/// The pattern part of a line-form item or a block cell, borrowing the
/// line: a constant is its text without quotes (owned only when it
/// held an escaped quote), typed by [`Pat::typed`].
enum Pat<'a> {
    /// Plain attribute, or the cell `_` → wildcard.
    Wild,
    /// `attr='c'`, or the cell `'c'`.
    Eq(Cow<'a, str>),
    /// `attr!='c'`, or the cell `!='c'` (eCFD disequality).
    Ne(Cow<'a, str>),
    /// `attr in ('a','b')`, or the cell `in ('a','b')` (eCFD
    /// disjunction): the non-empty text between the parentheses.
    In(&'a str),
}

/// An item of a bracket list: attribute name + pattern.
struct Item<'a> {
    attr: &'a str,
    pattern: Pat<'a>,
}

/// Split at the first `sep` outside quotes. `sep` is ASCII, so both
/// halves fall on character boundaries.
fn split_unquoted<'a>(s: &'a str, sep: &str) -> Option<(&'a str, &'a str)> {
    let (first, mut in_quote) = (sep.as_bytes()[0], false);
    for (i, b) in s.bytes().enumerate() {
        if b == b'\'' {
            in_quote = !in_quote;
        } else if b == first && !in_quote && s[i..].starts_with(sep) {
            return Some((&s[..i], &s[i + sep.len()..]));
        }
    }
    None
}

/// The non-empty trimmed pieces of `a, b='x', c`: `s` cut at every
/// `sep` that sits outside quotes and outside parentheses. One splitter
/// serves CFD lists, `in (...)` lists and CIND `;`-sections; a block
/// row cuts its cells the same way inside [`scan_row`].
/// A doubled quote reads as leave-and-re-enter, which never exposes a
/// separator, so escaped constants split correctly too.
fn items(s: &str, sep: u8) -> impl Iterator<Item = &str> {
    let mut rest = Some(s);
    std::iter::from_fn(move || loop {
        let s = rest?;
        let (mut in_quote, mut depth) = (false, 0usize);
        let cut = s.bytes().position(|b| {
            match b {
                b'\'' => in_quote = !in_quote,
                b'(' if !in_quote => depth += 1,
                b')' if !in_quote => depth = depth.saturating_sub(1),
                b if b == sep && !in_quote && depth == 0 => return true,
                _ => {}
            }
            false
        });
        let piece = cut.map_or(s, |i| &s[..i]).trim();
        rest = cut.map(|i| &s[i + 1..]);
        if !piece.is_empty() {
            return Some(piece);
        }
    })
}

/// A constant without its quotes: a quoted constant ends at its closing
/// quote — text after it is an error, not part of the constant — and
/// `''` inside it is un-escaped (the escape [`push_const`] renders, so
/// mined constants containing `'` survive a display → parse round
/// trip); an unquoted one is its trimmed text. A cell's quotes pair up
/// ([`content`] refuses an odd count), so a constant that opens with a
/// quote closes.
fn unquote(val: &str) -> Result<Cow<'_, str>> {
    let val = val.trim();
    let Some(inner) = val.strip_prefix('\'') else { return Ok(Cow::Borrowed(val)) };
    let mut escaped: Option<String> = None;
    let mut from = 0;
    while let Some(q) = inner[from..].find('\'').map(|q| from + q) {
        if inner[q + 1..].starts_with('\'') {
            escaped.get_or_insert_with(String::new).push_str(&inner[from..=q]);
            from = q + 2;
            continue;
        }
        if q + 1 < inner.len() {
            return Err(perr(format!("text after the closing quote of constant `{val}`")));
        }
        return Ok(match escaped {
            None => Cow::Borrowed(&inner[..q]),
            Some(mut text) => {
                text.push_str(&inner[from..q]);
                Cow::Owned(text)
            }
        });
    }
    Ok(Cow::Borrowed(val))
}

/// Parse a constant's text according to the attribute's type; a string
/// seen before in this parse shares its first `Arc`.
fn parse_const(schema: &Schema, attr: AttrId, raw: &str, strings: &mut Strings) -> Result<Value> {
    let attr = schema.attribute(attr);
    let (ty, name) = (attr.ty, &attr.name);
    if ty == Type::Str {
        if let Some(s) = strings.get(raw) {
            return Ok(Value::Str(s.clone()));
        }
    }
    let v = ty
        .parse(raw)
        .map_err(|_| perr(format!("constant `{raw}` does not parse as {ty} for `{name}`")))?;
    if let Value::Str(s) = &v {
        strings.insert(s.clone());
    }
    Ok(v)
}

impl Pat<'_> {
    /// The pattern over `attr`'s type.
    fn typed(&self, schema: &Schema, attr: AttrId, strings: &mut Strings) -> Result<PatternValue> {
        Ok(match self {
            Pat::Wild => PatternValue::Wildcard,
            Pat::Eq(text) => PatternValue::Const(parse_const(schema, attr, text, strings)?),
            Pat::Ne(text) => PatternValue::NotConst(parse_const(schema, attr, text, strings)?),
            Pat::In(list) => PatternValue::one_of(
                items(list, b',')
                    .map(|raw| parse_const(schema, attr, &unquote(raw)?, strings))
                    .collect::<Result<Vec<_>>>()?,
            ),
        })
    }
}

/// Whether constraint text can name an attribute or a relation `name`: a
/// non-empty run of letters, digits and `_`. A space, a bracket or a `#`
/// (where a comment starts) would not read back.
fn is_name(name: &str) -> bool {
    !name.is_empty() && name.chars().all(|c| c.is_alphanumeric() || c == '_')
}

fn check_attr_name(attr: &str) -> Result<&str> {
    if !is_name(attr) {
        return Err(perr(format!("bad attribute `{attr}`")));
    }
    Ok(attr)
}

/// Refuse a relation name constraint text cannot spell (letters, digits
/// and `_` only). The name also names the relation's files in a state
/// directory, so nothing else (`/`, `..`) gets through.
pub fn check_relation_name(name: &str) -> Result<()> {
    if is_name(name) {
        return Ok(());
    }
    Err(Error::Io(format!(
        "relation `{name}` cannot be written as constraint text (letters, digits and `_` only)"
    )))
}

/// Refuse a CFD over a relation or an attribute constraint text cannot
/// name (letters, digits and `_` only): [`write_cfd`] would render it to
/// text that [`parse_cfds`] cannot read back.
pub fn check_writable(cfd: &Cfd, schema: &Schema) -> Result<()> {
    check_relation_name(schema.name())?;
    let mut names = cfd.lhs.iter().chain([&cfd.rhs]).map(|&a| schema.attr_name(a));
    match names.find(|name| !is_name(name)) {
        Some(name) => Err(Error::Io(format!(
            "attribute `{name}` of `{}` cannot be written as constraint text \
             (letters, digits and `_` only)",
            schema.name()
        ))),
        None => Ok(()),
    }
}

/// The inside of `('a', 'b')`; `whole` is the item, for the messages.
fn in_list<'a>(list: &'a str, whole: &str) -> Result<&'a str> {
    let inner = list
        .trim()
        .strip_prefix('(')
        .and_then(|x| x.strip_suffix(')'))
        .ok_or_else(|| perr(format!("expected `in (...)` in `{whole}`")))?;
    if items(inner, b',').next().is_none() {
        return Err(perr(format!("empty `in (...)` list in `{whole}`")));
    }
    Ok(inner)
}

/// One line-form item: `attr`, `attr='c'`, `attr!='c'`, `attr in (..)`.
fn parse_item(s: &str) -> Result<Item<'_>> {
    // eCFD disequality: attr != 'c' (check before `=`).
    let (attr, pattern) = if let Some((attr, val)) = split_unquoted(s, "!") {
        let val = val
            .trim_start()
            .strip_prefix('=')
            .ok_or_else(|| perr(format!("expected `!=` in `{s}`")))?;
        (attr, Pat::Ne(unquote(val)?))
    } else if let Some((attr, val)) = split_unquoted(s, "=") {
        (attr, Pat::Eq(unquote(val)?))
    } else if let Some(at) = s.as_bytes().windows(4).position(|w| w.eq_ignore_ascii_case(b" in ")) {
        (&s[..at], Pat::In(in_list(&s[at + 4..], s)?))
    } else {
        (s, Pat::Wild)
    };
    Ok(Item { attr: check_attr_name(attr.trim())?, pattern })
}

/// One block-row cell: `_`, `'c'`, `!='c'`, `in (..)`.
fn parse_cell<'a>(&Cell { text: s, quotes }: &Cell<'a>) -> Result<Pat<'a>> {
    // The scan counted the cell's quotes: none, or just the pair around
    // the whole constant, leaves nothing to unquote.
    let constant = |val: &'a str| {
        let val = val.trim_start();
        match quotes {
            0 => Ok(Cow::Borrowed(val)),
            2 if val.len() >= 2 && val.starts_with('\'') && val.ends_with('\'') => {
                Ok(Cow::Borrowed(&val[1..val.len() - 1]))
            }
            _ => unquote(val),
        }
    };
    if s == "_" {
        return Ok(Pat::Wild);
    }
    if let Some(val) = s.strip_prefix("!=") {
        return Ok(Pat::Ne(constant(val)?));
    }
    let list = s.get(..2).filter(|kw| kw.eq_ignore_ascii_case("in")).map(|_| s[2..].trim_start());
    match list {
        Some(list) if list.starts_with('(') => Ok(Pat::In(in_list(list, s)?)),
        _ => Ok(Pat::Eq(constant(s)?)),
    }
}

/// `rel([lhs items] -> [rhs items])`, the shape a line-form CFD and a
/// block head share, against the schema `rel` names.
struct Head<'a, 's> {
    schema: &'s Schema,
    lhs: Vec<Item<'a>>,
    rhs: Vec<Item<'a>>,
}

fn parse_head<'a, 's>(
    line: &'a str,
    schema_of: &impl Fn(&str) -> Result<&'s Schema>,
) -> Result<Head<'a, 's>> {
    let (rel, rest) =
        line.split_once('(').ok_or_else(|| perr("expected `relation([...] -> [...])`"))?;
    let schema = schema_of(rel.trim())?;
    let rest = rest.trim_end().strip_suffix(')').ok_or_else(|| perr("missing closing `)`"))?;
    let (lhs_part, rhs_part) = split_unquoted(rest, "->").ok_or_else(|| perr("expected `->`"))?;
    let list = |part: &'a str| -> Result<Vec<Item<'a>>> {
        items(extract_brackets(part)?, b',').map(parse_item).collect()
    };
    let (lhs, rhs) = (list(lhs_part)?, list(rhs_part)?);
    if lhs.is_empty() {
        return Err(perr("empty LHS"));
    }
    if rhs.is_empty() {
        return Err(perr("empty RHS"));
    }
    Ok(Head { schema, lhs, rhs })
}

fn extract_brackets(s: &str) -> Result<&str> {
    let s = s.trim();
    s.strip_prefix('[')
        .and_then(|x| x.strip_suffix(']'))
        .ok_or_else(|| perr(format!("expected `[...]`, got `{s}`")))
}

/// One line-form CFD into normal-form CFDs, one per RHS attribute.
fn parse_cfd_line<'s>(
    line: &str,
    out: &mut Vec<Cfd>,
    strings: &mut Strings,
    schema_of: &impl Fn(&str) -> Result<&'s Schema>,
) -> Result<()> {
    let Head { schema, lhs: lhs_items, rhs: rhs_items } = parse_head(line, schema_of)?;
    let mut lhs = Vec::with_capacity(lhs_items.len());
    let mut lhs_patterns = Vec::with_capacity(lhs_items.len());
    for item in &lhs_items {
        let attr = schema.attr_id(item.attr)?;
        lhs.push(attr);
        lhs_patterns.push(item.pattern.typed(schema, attr, strings)?);
    }
    for item in &rhs_items {
        let rhs = schema.attr_id(item.attr)?;
        let row = PatternRow::new(lhs_patterns.clone(), item.pattern.typed(schema, rhs, strings)?);
        let (relation, lhs) = (schema.name().to_string(), lhs.clone());
        out.push(Cfd { relation, lhs, rhs, tableau: vec![row] });
    }
    Ok(())
}

/// A block's first line without its `{`: plain attributes, one RHS.
fn parse_block_head<'s>(
    head: &str,
    opened: usize,
    schema_of: &impl Fn(&str) -> Result<&'s Schema>,
) -> Result<Block<'s>> {
    let Head { schema, lhs, rhs } = parse_head(head, schema_of)?;
    let plain = |item: &Item<'_>| match item.pattern {
        Pat::Wild => schema.attr_id(item.attr),
        _ => Err(perr(format!(
            "block head attribute `{}` carries a pattern: patterns go in the rows",
            item.attr
        ))),
    };
    let [rhs] = rhs.as_slice() else {
        return Err(perr(format!("a block head has one RHS attribute, found {}", rhs.len())));
    };
    let (lhs, rhs) = (lhs.iter().map(plain).collect::<Result<_>>()?, plain(rhs)?);
    let cfd = Cfd { relation: schema.name().to_string(), lhs, rhs, tableau: Vec::new() };
    Ok(Block { cfd, schema, opened })
}

/// A block-row cell, trimmed, with the quotes the scan counted in it.
struct Cell<'t> {
    text: &'t str,
    quotes: u32,
}

/// One block row as one left-to-right scan of its raw line found it;
/// its cells are in the caller's list.
struct RowScan<'t> {
    /// The line without its comment and surrounding blanks.
    content: &'t str,
    /// Where the RHS cells start in the cell list; `None` without `||`.
    bar: Option<usize>,
    /// Whether a second `||` follows the first.
    second_bar: bool,
}

/// Scan a raw block line once, left to right: a quote toggles quoting,
/// `#` outside quotes ends the line (a comment), and outside quotes the
/// first `||` ends the LHS cells while `,` outside parentheses ends a
/// cell. `cells` receives the non-empty trimmed cells, LHS then RHS —
/// what cutting the comment, splitting at `||` and then at the commas,
/// one pass each, found before. A quote still open at the end is the
/// unterminated-quote error [`content`] reports.
fn scan_row<'t>(raw: &'t str, cells: &mut Vec<Cell<'t>>) -> Result<RowScan<'t>> {
    cells.clear();
    let bytes = raw.as_bytes();
    let mut cut = |from: usize, to: usize, quotes: &mut u32| {
        let text = raw[from..to].trim();
        if !text.is_empty() {
            cells.push(Cell { text, quotes: *quotes });
        }
        *quotes = 0;
        cells.len()
    };
    let (mut in_quote, mut depth, mut start, mut end) = (false, 0usize, 0, bytes.len());
    let (mut bar, mut second_bar, mut quotes, mut i) = (None, false, 0, 0);
    while i < bytes.len() {
        match bytes[i] {
            b'\'' => {
                in_quote = !in_quote;
                quotes += 1;
            }
            _ if in_quote => {}
            b'#' => {
                end = i;
                break;
            }
            b'(' => depth += 1,
            b')' => depth = depth.saturating_sub(1),
            b',' if depth == 0 => {
                cut(start, i, &mut quotes);
                start = i + 1;
            }
            b'|' if bytes.get(i + 1) == Some(&b'|') => {
                if bar.is_some() {
                    second_bar = true;
                } else {
                    bar = Some(cut(start, i, &mut quotes));
                    (start, depth) = (i + 2, 0);
                }
                i += 1;
            }
            _ => {}
        }
        i += 1;
    }
    if in_quote {
        return Err(perr("unterminated quote: a constant ends on the line it starts on"));
    }
    cut(start, end, &mut quotes);
    Ok(RowScan { content: raw[..end].trim(), bar, second_bar })
}

/// One block row, `cell, cell || cell`, from its scan, against the
/// head's embedded FD.
fn parse_row(
    row: &RowScan<'_>,
    cells: &[Cell<'_>],
    (lhs, rhs): (&[AttrId], AttrId),
    schema: &Schema,
    strings: &mut Strings,
) -> Result<PatternRow> {
    let bar = row.bar.ok_or_else(|| perr("expected `lhs cells || rhs cell`"))?;
    if row.second_bar {
        return Err(perr("a second `||` in a row: expected `lhs cells || rhs cell`"));
    }
    let (left, right) = cells.split_at(bar);
    let mut patterns = Vec::with_capacity(lhs.len());
    for (&attr, cell) in lhs.iter().zip(left) {
        patterns.push(parse_cell(cell)?.typed(schema, attr, strings)?);
    }
    if left.len() != lhs.len() {
        return Err(perr(format!(
            "row has {} LHS cell(s) but the head has {} attribute(s)",
            left.len(),
            lhs.len()
        )));
    }
    let [rhs_cell] = right else {
        return Err(perr("expected one RHS cell after `||`"));
    };
    Ok(PatternRow::new(patterns, parse_cell(rhs_cell)?.typed(schema, rhs, strings)?))
}

/// Parse one CIND line.
fn parse_cind_line(line: &str, schemas: &[Schema], strings: &mut Strings) -> Result<Cind> {
    let (from_part, to_part) = split_unquoted(line, "<=")
        .ok_or_else(|| perr("expected `<=` between source and target"))?;
    let (from_rel, from_attrs, from_conds) = parse_cind_side(from_part)?;
    let (to_rel, to_attrs, to_conds) = parse_cind_side(to_part)?;
    let from_schema = find_schema(schemas, from_rel)?;
    let to_schema = find_schema(schemas, to_rel)?;
    if from_attrs.len() != to_attrs.len() {
        return Err(perr(format!(
            "correspondence lists have different lengths ({} vs {})",
            from_attrs.len(),
            to_attrs.len()
        )));
    }
    fn conds<'a>(
        schema: &Schema,
        items: &[Item<'a>],
        strings: &mut Strings,
    ) -> Result<Vec<(&'a str, Value)>> {
        items
            .iter()
            .map(|i| match &i.pattern {
                Pat::Eq(text) => {
                    Ok((i.attr, parse_const(schema, schema.attr_id(i.attr)?, text, strings)?))
                }
                _ => Err(perr(format!("pattern condition `{}` needs `=value`", i.attr))),
            })
            .collect()
    }
    let fc = conds(from_schema, &from_conds, strings)?;
    let tc = conds(to_schema, &to_conds, strings)?;
    Cind::new(from_schema, &from_attrs, &fc, to_schema, &to_attrs, &tc)
}

/// Parse `rel(attr, attr; cond='v', cond='v')`.
fn parse_cind_side(s: &str) -> Result<(&str, Vec<&str>, Vec<Item<'_>>)> {
    let (rel, rest) = s.trim().split_once('(').ok_or_else(|| perr("expected `relation(...)`"))?;
    let inner = rest.trim_end().strip_suffix(')').ok_or_else(|| perr("missing closing `)`"))?;
    let mut sections = items(inner, b';');
    let (Some(attrs), conds, None) = (sections.next(), sections.next(), sections.next()) else {
        return Err(perr("expected `attrs[; conds]`"));
    };
    let attrs = items(attrs, b',')
        .map(|s| match parse_item(s)? {
            Item { attr, pattern: Pat::Wild } => Ok(attr),
            Item { attr, .. } => {
                Err(perr(format!("correspondence attr `{attr}` cannot carry `=`")))
            }
        })
        .collect::<Result<_>>()?;
    let conds = items(conds.unwrap_or(""), b',').map(parse_item).collect::<Result<_>>()?;
    Ok((rel.trim(), attrs, conds))
}

/// A constant in surface syntax: quoted, with embedded quotes doubled
/// (the escape [`unquote`] undoes).
fn push_const(out: &mut String, v: &Value) {
    use fmt::Write;
    out.push('\'');
    match v {
        Value::Null => {}
        Value::Str(s) => {
            let mut parts = s.split('\'');
            out.push_str(parts.next().unwrap_or_default());
            for part in parts {
                out.push_str("''");
                out.push_str(part);
            }
        }
        // Numbers and booleans: no quote to escape, nothing to allocate.
        other => write!(out, "{other}").expect("writing to a String cannot fail"),
    }
    out.push('\'');
}

/// A pattern over `attr` as a line-form item, or — with `attr` empty —
/// as a block cell.
fn push_pattern(out: &mut String, attr: &str, p: &PatternValue) {
    out.push_str(attr);
    match p {
        PatternValue::Wildcard if attr.is_empty() => out.push('_'),
        PatternValue::Wildcard => {}
        PatternValue::Const(c) => {
            if !attr.is_empty() {
                out.push('=');
            }
            push_const(out, c);
        }
        PatternValue::NotConst(c) => {
            out.push_str("!=");
            push_const(out, c);
        }
        PatternValue::OneOf(cs) => {
            out.push_str(if attr.is_empty() { "in (" } else { " in (" });
            for (i, c) in cs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                push_const(out, c);
            }
            out.push(')');
        }
    }
}

/// `relation([a, b] -> [`: a CFD up to its RHS, each LHS attribute
/// written by `item(out, position, name)`.
fn push_lhs(out: &mut String, cfd: &Cfd, schema: &Schema, item: impl Fn(&mut String, usize, &str)) {
    out.push_str(&cfd.relation);
    out.push_str("([");
    for (i, &a) in cfd.lhs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        item(out, i, schema.attr_name(a));
    }
    out.push_str("] -> [");
}

/// Append one tableau row of a CFD as a line-form constraint (no
/// trailing newline).
fn push_cfd_row(out: &mut String, cfd: &Cfd, schema: &Schema, row: &PatternRow) {
    push_lhs(out, cfd, schema, |out, i, name| push_pattern(out, name, &row.lhs[i]));
    push_pattern(out, schema.attr_name(cfd.rhs), &row.rhs);
    out.push_str("])");
}

/// Append a normal-form CFD to `out` in surface syntax, newline
/// terminated: a single-row CFD as one line, any other as a block (the
/// head once, one line per tableau row). Constants are quoted with
/// embedded quotes doubled, so the output re-parses through
/// [`parse_cfds`] to exactly `cfd` — [`Cfd::display`], `semandaq
/// discover --emit` and the serve tier's checkpoints all render here,
/// and appending a whole suite to one buffer allocates only as the
/// buffer grows.
pub fn write_cfd(out: &mut String, cfd: &Cfd, schema: &Schema) {
    if let [row] = cfd.tableau.as_slice() {
        push_cfd_row(out, cfd, schema, row);
        out.push('\n');
        return;
    }
    push_lhs(out, cfd, schema, |out, _, name| out.push_str(name));
    out.push_str(schema.attr_name(cfd.rhs));
    out.push_str("]) {\n");
    for row in &cfd.tableau {
        out.push_str("  ");
        for (i, p) in row.lhs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_pattern(out, "", p);
        }
        out.push_str(" || ");
        push_pattern(out, "", &row.rhs);
        out.push('\n');
    }
    out.push_str("}\n");
}

/// [`write_cfd`] into a fresh string.
pub fn cfd_to_text(cfd: &Cfd, schema: &Schema) -> String {
    suite_to_text([cfd], schema)
}

/// A suite over one schema, [`write_cfd`] by [`write_cfd`] in one
/// buffer — the text [`parse_cfds`] reads back to exactly `cfds`.
pub fn suite_to_text<'a>(cfds: impl IntoIterator<Item = &'a Cfd>, schema: &Schema) -> String {
    let mut out = String::new();
    cfds.into_iter().for_each(|cfd| write_cfd(&mut out, cfd, schema));
    out
}

/// Append one tableau row of a CFD as a single line-form constraint
/// (no trailing newline) — what diagnostics embed when they point at a
/// specific violated row of a multi-row tableau: one line even for a
/// multi-row merged tableau.
pub fn write_cfd_row(out: &mut String, cfd: &Cfd, schema: &Schema, row: usize) {
    push_cfd_row(out, cfd, schema, &cfd.tableau[row]);
}

/// Serialize a CIND back into the surface syntax [`parse_cinds`]
/// accepts — how `semandaq discover` emits mined inclusion
/// dependencies.
pub fn cind_to_text(cind: &Cind, from: &Schema, to: &Schema) -> String {
    fn side(out: &mut String, schema: &Schema, attrs: &[AttrId], conds: &[PatternCond]) {
        out.push_str(schema.name());
        out.push('(');
        for (i, &a) in attrs.iter().enumerate() {
            out.push_str(if i > 0 { ", " } else { "" });
            out.push_str(schema.attr_name(a));
        }
        for (i, c) in conds.iter().enumerate() {
            out.push_str(if i > 0 { ", " } else { "; " });
            out.push_str(schema.attr_name(c.attr));
            out.push('=');
            push_const(out, &c.value);
        }
        out.push(')');
    }
    let mut out = String::new();
    side(&mut out, from, &cind.from_attrs, &cind.from_conds);
    out.push_str(" <= ");
    side(&mut out, to, &cind.to_attrs, &cind.to_conds);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use revival_relation::Type;

    fn customer() -> Schema {
        Schema::builder("customer")
            .attr("cc", Type::Str)
            .attr("ac", Type::Str)
            .attr("phn", Type::Str)
            .attr("street", Type::Str)
            .attr("city", Type::Str)
            .attr("zip", Type::Str)
            .attr("age", Type::Int)
            .build()
    }

    #[test]
    fn paper_example_one() {
        let s = customer();
        let cfds = parse_cfds("customer([cc='44', zip] -> [street])", &s).unwrap();
        assert_eq!(cfds.len(), 1);
        let cfd = &cfds[0];
        assert_eq!(cfd.lhs, vec![0, 5]);
        assert_eq!(cfd.rhs, 3);
        assert_eq!(cfd.tableau[0].lhs[0], PatternValue::constant("44"));
        assert!(cfd.tableau[0].lhs[1].is_wildcard());
        assert!(cfd.tableau[0].rhs.is_wildcard());
    }

    #[test]
    fn paper_example_two_normalizes() {
        let s = customer();
        let cfds = parse_cfds("customer([cc='01', ac='908', phn] -> [street, city='mh', zip])", &s)
            .unwrap();
        assert_eq!(cfds.len(), 3);
        let city = cfds.iter().find(|c| c.rhs == s.attr_id("city").unwrap()).unwrap();
        assert_eq!(city.tableau[0].rhs, PatternValue::constant("mh"));
        let street = cfds.iter().find(|c| c.rhs == s.attr_id("street").unwrap()).unwrap();
        assert!(street.tableau[0].rhs.is_wildcard());
    }

    #[test]
    fn typed_constants() {
        let s = customer();
        let cfds = parse_cfds("customer([age=30, zip] -> [street])", &s).unwrap();
        assert_eq!(cfds[0].tableau[0].lhs[0], PatternValue::Const(Value::Int(30)));
        // Quoted form also parses by type.
        let cfds = parse_cfds("customer([age='30', zip] -> [street])", &s).unwrap();
        assert_eq!(cfds[0].tableau[0].lhs[0], PatternValue::Const(Value::Int(30)));
        // Bad int rejected.
        assert!(parse_cfds("customer([age='abc', zip] -> [street])", &s).is_err());
    }

    #[test]
    fn comments_and_blank_lines() {
        let s = customer();
        let text = "\n# suite header\ncustomer([cc='44', zip] -> [street]) # trailing\n\n";
        let cfds = parse_cfds(text, &s).unwrap();
        assert_eq!(cfds.len(), 1);
    }

    #[test]
    fn hash_inside_quotes_not_comment() {
        let s = customer();
        let cfds = parse_cfds("customer([cc='#4', zip] -> [street])", &s).unwrap();
        assert_eq!(cfds[0].tableau[0].lhs[0], PatternValue::constant("#4"));
    }

    #[test]
    fn errors() {
        // The line form's messages, as they stood before the block form.
        let s = customer();
        let message = |text: &str| parse_cfds(text, &s).unwrap_err().to_string();
        let at = |what: &str| format!("constraint error at line 1: {what}");
        assert_eq!(message("customer([cc] [street])"), at("expected `->`"));
        assert_eq!(
            message("wrong([cc] -> [street])"),
            at("constraint relation `wrong` does not match schema `customer`")
        );
        assert_eq!(
            message("customer([nope] -> [street])"),
            "unknown attribute `nope` in relation `customer`"
        );
        assert_eq!(message("customer([] -> [street])"), at("empty LHS"));
        assert_eq!(message("customer([cc] -> [])"), at("empty RHS"));
        assert_eq!(message("customer[cc] -> [street]"), at("expected `relation([...] -> [...])`"));
        // Text after a closing quote, and a second `||` in a row, are
        // errors — not one garbled constant (`a'||'b`, `_ || _`).
        assert_eq!(
            message("customer([zip='a'||'b'] -> [street])"),
            at("text after the closing quote of constant `'a'||'b'`")
        );
        assert_eq!(
            message("customer([cc='44' x] -> [street])"),
            at("text after the closing quote of constant `'44' x`")
        );
        let second = "constraint error at line 2: a second `||` in a row: \
                      expected `lhs cells || rhs cell`";
        for row in ["'44' || 'a' || 'b'", "'44' || _ || _", "'44' || in ('a') || 'b'"] {
            assert_eq!(message(&format!("customer([cc] -> [zip]) {{\n  {row}\n}}")), second);
        }
        // Doubled quotes are an escape, not a closing quote; quotes
        // inside a constant that opens without one stay its text.
        let cfds = parse_cfds("customer([cc] -> [zip]) {\n  'o''b' || x'y'\n}", &s).unwrap();
        assert_eq!(cfds[0].tableau[0].lhs[0], PatternValue::constant("o'b"));
        assert_eq!(cfds[0].tableau[0].rhs, PatternValue::constant("x'y'"));
    }

    #[test]
    fn attribute_names_are_what_constraint_text_can_spell() {
        for good in ["zip", "c_1", "_", "straße", "街"] {
            assert!(is_name(good), "{good:?}");
        }
        for bad in ["", "zip code", " zip", "zip#code", "#", "a-b", "zip(", "a#b", "../x", "a/b"] {
            assert!(!is_name(bad), "{bad:?}");
        }
        // One rule for relation names: a suite over `a#b` would be
        // written as `a#b([a] -> [b])`, which reads back as a comment.
        let schema =
            |name: &str| Schema::builder(name).attr("a", Type::Str).attr("b", Type::Str).build();
        let writable = |name: &str| {
            let s = schema(name);
            check_writable(&Cfd::from_fd(&s, &["a"], "b").unwrap(), &s).map_err(|e| e.to_string())
        };
        assert_eq!(writable("a_b"), Ok(()));
        assert!(writable("a#b").unwrap_err().contains("relation `a#b`"));
    }

    #[test]
    fn block_is_one_cfd_with_its_rows_in_file_order() {
        let s = customer();
        let text = "customer([cc, zip] -> [street]) { # the head, once\n\
                    \x20 '44', _ || _\n\
                    \n\
                    \x20 # duplicates and subsumed rows stay, in order\n\
                    \x20 '44', _ || _\n\
                    \x20 _, IN ('a', 'b') || != 'x'\n\
                    }\n\
                    customer([age] -> [city]) {\n  30 || 'edi'\n}\n\
                    customer([cc] -> [zip])\n\
                    customer([cc] -> [zip]) {\n}\n";
        let cfds = parse_cfds(text, &s).unwrap();
        assert_eq!(cfds.len(), 4, "one CFD per block, one per line");
        let uk = PatternRow::new(
            vec![PatternValue::constant("44"), PatternValue::Wildcard],
            PatternValue::Wildcard,
        );
        let ecfd = PatternRow::new(
            vec![PatternValue::Wildcard, PatternValue::one_of(vec!["b".into(), "a".into()])],
            PatternValue::NotConst("x".into()),
        );
        assert_eq!(cfds[0].tableau, vec![uk.clone(), uk, ecfd]);
        assert_eq!((cfds[0].lhs.as_slice(), cfds[0].rhs), (&[0, 5][..], 3));
        // Cells are typed by the head's attributes, quotes optional.
        assert_eq!(cfds[1].tableau[0].lhs[0], PatternValue::Const(Value::Int(30)));
        assert_eq!(cfds[2].tableau.len(), 1);
        assert!(cfds[3].tableau.is_empty(), "an empty block is an empty tableau");
        // The renderer picks the form by row count, so the text round
        // trips CFD for CFD.
        assert_eq!(parse_cfds(&suite_to_text(&cfds, &s), &s).unwrap(), cfds);
        assert_eq!(
            cfd_to_text(&cfds[0], &s),
            "customer([cc, zip] -> [street]) {\n  '44', _ || _\n  '44', _ || _\n  \
             _, in ('a', 'b') || !='x'\n}\n"
        );
        let mut row = String::new();
        write_cfd_row(&mut row, &cfds[0], &s, 2);
        assert_eq!(row, "customer([cc, zip in ('a', 'b')] -> [street!='x'])");
    }

    #[test]
    fn blocks_span_relations_in_a_multi_schema_suite() {
        let (s, other) = (customer(), Schema::builder("o").attr("k", Type::Str).build());
        let text = "o([k] -> [k]) {\n  'a' || _\n  'b' || _\n}\ncustomer([cc] -> [zip])\n";
        let cfds = parse_cfds_multi(text, &[s, other]).unwrap();
        assert_eq!(cfds.iter().map(|c| c.relation.as_str()).collect::<Vec<_>>(), ["o", "customer"]);
        assert_eq!(cfds[0].tableau.len(), 2);
        let unknown = parse_cfds_multi("nope([k] -> [k]) {\n}\n", &[customer()]);
        assert_eq!(unknown, Err(Error::UnknownRelation("nope".into())));
    }

    #[test]
    fn roundtrip() {
        let s = customer();
        let text = "customer([cc='44', zip] -> [street])\n";
        let cfds = parse_cfds(text, &s).unwrap();
        assert_eq!(cfd_to_text(&cfds[0], &s), text);
    }

    #[test]
    fn quoted_constants_escape_and_roundtrip() {
        let s = customer();
        // Constants full of syntax characters: quotes, separators,
        // brackets, arrows, comment markers — everything a mined value
        // can drag in from real data.
        // (An empty-string constant is not in the list: `Type::parse`
        // normalises "" to Null at load time, so mined constants are
        // `Null`, never `Str("")` — and Null round-trips as `''`.)
        for nasty in ["o'brien", "a''b", "'", "x,y", "a#b", "EH8]", "a->b", "in (x)", "a=b"] {
            let cfd = Cfd::new(
                &s,
                &["cc", "zip"],
                "street",
                vec![crate::pattern::PatternRow::new(
                    vec![PatternValue::constant(nasty), PatternValue::Wildcard],
                    PatternValue::constant(nasty),
                )],
            )
            .unwrap();
            let text = cfd_to_text(&cfd, &s);
            let back =
                parse_cfds(&text, &s).unwrap_or_else(|e| panic!("`{text}` must re-parse: {e}"));
            assert_eq!(back.len(), 1, "one line, one CFD: {text}");
            assert_eq!(back[0], cfd, "round trip must be exact for `{nasty}`");
        }
        // The eCFD forms escape the same way.
        let cfd = Cfd::new(
            &s,
            &["cc"],
            "street",
            vec![crate::pattern::PatternRow::new(
                vec![PatternValue::one_of(vec!["o'b".into(), "c,d".into()])],
                PatternValue::NotConst("it's".into()),
            )],
        )
        .unwrap();
        let back = parse_cfds(&cfd_to_text(&cfd, &s), &s).unwrap();
        assert_eq!(back[0], cfd);
        // A Null constant (how load-time parsing stores "") renders as
        // `''` and parses back to Null.
        let null_cfd = Cfd::new(
            &s,
            &["cc"],
            "street",
            vec![crate::pattern::PatternRow::new(
                vec![PatternValue::Const(Value::Null)],
                PatternValue::Wildcard,
            )],
        )
        .unwrap();
        let back = parse_cfds(&cfd_to_text(&null_cfd, &s), &s).unwrap();
        assert_eq!(back[0], null_cfd);
    }

    #[test]
    fn cind_roundtrips_through_text() {
        let cd = Schema::builder("cd")
            .attr("album", Type::Str)
            .attr("price", Type::Int)
            .attr("genre", Type::Str)
            .build();
        let book = Schema::builder("book")
            .attr("title", Type::Str)
            .attr("price", Type::Int)
            .attr("format", Type::Str)
            .build();
        let schemas = [cd.clone(), book.clone()];
        for text in [
            "cd(album, price; genre='a-book') <= book(title, price; format='audio')\n",
            "cd(album) <= book(title)\n",
            "cd(album; genre='rock ''n'' roll') <= book(title)\n",
        ] {
            let cinds = parse_cinds(text, &schemas).unwrap();
            assert_eq!(cind_to_text(&cinds[0], &cd, &book), text);
            let back = parse_cinds(&cind_to_text(&cinds[0], &cd, &book), &schemas).unwrap();
            assert_eq!(back[0], cinds[0]);
        }
    }

    #[test]
    fn cind_paper_example() {
        let cd = Schema::builder("cd")
            .attr("album", Type::Str)
            .attr("price", Type::Int)
            .attr("genre", Type::Str)
            .build();
        let book = Schema::builder("book")
            .attr("title", Type::Str)
            .attr("price", Type::Int)
            .attr("format", Type::Str)
            .build();
        let cinds = parse_cinds(
            "cd(album, price; genre='a-book') <= book(title, price; format='audio')",
            &[cd.clone(), book.clone()],
        )
        .unwrap();
        assert_eq!(cinds.len(), 1);
        let c = &cinds[0];
        assert_eq!(c.from_relation, "cd");
        assert_eq!(c.to_relation, "book");
        assert_eq!(c.from_attrs, vec![0, 1]);
        assert_eq!(c.to_attrs, vec![0, 1]);
        assert_eq!(c.from_conds.len(), 1);
        assert_eq!(c.to_conds.len(), 1);
    }

    #[test]
    fn cind_without_conditions_is_plain_ind() {
        let a = Schema::builder("a").attr("x", Type::Str).build();
        let b = Schema::builder("b").attr("y", Type::Str).build();
        let cinds = parse_cinds("a(x) <= b(y)", &[a, b]).unwrap();
        assert!(cinds[0].from_conds.is_empty());
        assert!(cinds[0].to_conds.is_empty());
    }

    #[test]
    fn cind_errors() {
        let a = Schema::builder("a").attr("x", Type::Str).build();
        let b = Schema::builder("b").attr("y", Type::Str).attr("z", Type::Str).build();
        let schemas = [a, b];
        assert!(parse_cinds("a(x) <= b(y, z)", &schemas).is_err()); // arity
        assert!(parse_cinds("a(x) <= c(y)", &schemas).is_err()); // unknown rel
        assert!(parse_cinds("a(x) b(y)", &schemas).is_err()); // no <=
        assert!(parse_cinds("a(x; y) <= b(y)", &schemas).is_err()); // cond without =
    }
}
