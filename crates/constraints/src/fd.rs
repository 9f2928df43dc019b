//! Classical functional dependencies.
//!
//! An FD is the degenerate case of a CFD (an all-wildcard tableau):
//! [`crate::Cfd::embedded_fd`] is a CFD's `X → A`, which detection's
//! profile rows render by attribute name ([`Fd::display`]).

use revival_relation::{AttrId, Schema};
use std::fmt;

/// A functional dependency `X → Y` over one relation, by attribute id.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Fd {
    pub relation: String,
    pub lhs: Vec<AttrId>,
    pub rhs: Vec<AttrId>,
}

impl Fd {
    /// Build directly from ids (used by discovery).
    pub fn from_ids(relation: impl Into<String>, lhs: Vec<AttrId>, rhs: Vec<AttrId>) -> Fd {
        Fd { relation: relation.into(), lhs, rhs }
    }

    /// Human-readable form using a schema for names.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Fd, &'a Schema);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let names = |ids: &[AttrId]| {
                    ids.iter().map(|&i| self.1.attr_name(i)).collect::<Vec<_>>().join(", ")
                };
                write!(
                    f,
                    "{}([{}] -> [{}])",
                    self.0.relation,
                    names(&self.0.lhs),
                    names(&self.0.rhs)
                )
            }
        }
        D(self, schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revival_relation::Type;

    fn schema() -> Schema {
        Schema::builder("r")
            .attr("a", Type::Str)
            .attr("b", Type::Str)
            .attr("c", Type::Str)
            .attr("d", Type::Str)
            .build()
    }

    #[test]
    fn display_fd() {
        let s = schema();
        let fd = Fd::from_ids("r", vec![0, 1], vec![2]);
        assert_eq!(fd.display(&s).to_string(), "r([a, b] -> [c])");
    }
}
