//! Classical inclusion dependencies.

use crate::cind::Cind;
use revival_relation::{AttrId, Result, Schema, Table};
use std::fmt;

/// An inclusion dependency `R1[X] ⊆ R2[Y]` (positional correspondence).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ind {
    pub from_relation: String,
    pub from_attrs: Vec<AttrId>,
    pub to_relation: String,
    pub to_attrs: Vec<AttrId>,
}

impl Ind {
    /// Build from attribute names over the two schemas.
    pub fn new(from: &Schema, from_attrs: &[&str], to: &Schema, to_attrs: &[&str]) -> Result<Ind> {
        assert_eq!(from_attrs.len(), to_attrs.len(), "IND attribute lists must have equal length");
        Ok(Ind {
            from_relation: from.name().to_string(),
            from_attrs: from.attr_ids(from_attrs)?,
            to_relation: to.name().to_string(),
            to_attrs: to.attr_ids(to_attrs)?,
        })
    }

    /// Check `from ⊆ to`: the CIND witness probe with no conditions.
    pub fn satisfied_by(&self, from: &Table, to: &Table) -> bool {
        Cind::from(self.clone()).satisfied_by(from, to)
    }
}

impl fmt::Display for Ind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{:?}] SUBSETEQ {}[{:?}]",
            self.from_relation, self.from_attrs, self.to_relation, self.to_attrs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revival_relation::{Type, Value};

    fn schemas() -> (Schema, Schema) {
        let orders =
            Schema::builder("orders").attr("cid", Type::Int).attr("amt", Type::Int).build();
        let customers =
            Schema::builder("customers").attr("id", Type::Int).attr("name", Type::Str).build();
        (orders, customers)
    }

    #[test]
    fn satisfied_and_violated() {
        let (so, sc) = schemas();
        let ind = Ind::new(&so, &["cid"], &sc, &["id"]).unwrap();
        let mut orders = Table::new(so);
        orders.push(vec![Value::Int(1), Value::Int(10)]).unwrap();
        let mut customers = Table::new(sc);
        customers.push(vec![Value::Int(1), "alice".into()]).unwrap();
        assert!(ind.satisfied_by(&orders, &customers));
        orders.push(vec![Value::Int(2), Value::Int(20)]).unwrap();
        assert!(!ind.satisfied_by(&orders, &customers));
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn arity_mismatch_panics() {
        let (so, sc) = schemas();
        let _ = Ind::new(&so, &["cid", "amt"], &sc, &["id"]);
    }
}
