//! Crate-wide error type.

use std::fmt;

/// Errors produced by the relational substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// An attribute name was not found in a schema.
    UnknownAttribute { relation: String, attribute: String },
    /// A relation name was not found in a catalog.
    UnknownRelation(String),
    /// A row had the wrong arity for its schema.
    ArityMismatch { expected: usize, got: usize },
    /// A value did not match the declared attribute type.
    TypeMismatch { attribute: String, expected: String, got: String },
    /// A tuple id referred to a deleted or never-existing row.
    NoSuchTuple(u64),
    /// CSV input was malformed.
    Csv { line: usize, message: String },
    /// SQL lexing/parsing failed.
    SqlParse { position: usize, message: String },
    /// Constraint text (a CFD suite, a CIND list) failed to parse; `line`
    /// is 1-based.
    Constraint { line: usize, message: String },
    /// SQL planning/execution failed (semantic errors).
    SqlExec(String),
    /// Expression evaluation failed.
    Eval(String),
    /// A constraint's pattern tableau is malformed (row arity mismatch,
    /// empty disjunction). Surfaced as an error up front so detection
    /// and repair passes fail cleanly instead of panicking mid-scan.
    MalformedPattern { constraint: String, reason: String },
    /// A snapshot file was malformed, truncated, or version-incompatible.
    /// Carries the byte offset where decoding gave up, so a corrupt file
    /// is diagnosable; open never panics on bad input.
    Snapshot { offset: usize, message: String },
    /// An I/O error (message only, to keep the error type `Clone + Eq`).
    Io(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownAttribute { relation, attribute } => {
                write!(f, "unknown attribute `{attribute}` in relation `{relation}`")
            }
            Error::UnknownRelation(r) => write!(f, "unknown relation `{r}`"),
            Error::ArityMismatch { expected, got } => {
                write!(f, "row arity mismatch: schema has {expected} attributes, row has {got}")
            }
            Error::TypeMismatch { attribute, expected, got } => {
                write!(f, "type mismatch on `{attribute}`: expected {expected}, got {got}")
            }
            Error::NoSuchTuple(id) => write!(f, "no such tuple: {id}"),
            Error::Csv { line, message } => write!(f, "csv error at line {line}: {message}"),
            Error::SqlParse { position, message } => {
                write!(f, "sql parse error at byte {position}: {message}")
            }
            Error::Constraint { line, message } => {
                write!(f, "constraint error at line {line}: {message}")
            }
            Error::SqlExec(m) => write!(f, "sql execution error: {m}"),
            Error::Eval(m) => write!(f, "expression error: {m}"),
            Error::MalformedPattern { constraint, reason } => {
                write!(f, "malformed pattern in `{constraint}`: {reason}")
            }
            Error::Snapshot { offset, message } => {
                write!(f, "snapshot error at byte {offset}: {message}")
            }
            Error::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e.to_string())
    }
}

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, Error>;
