//! Book/CD order generator for the CIND experiments (E7).
//!
//! Matches the paper's §3 example: `book(title, price, format)` and
//! `cd(album, price, genre)`; audio-book CDs must have a matching
//! `book` row with `format='audio'`. The generator emits a configurable
//! fraction of audio-book CDs *without* a witness (the violations).

use rand::prelude::*;
use rand::rngs::StdRng;
use revival_constraints::parser::parse_cinds;
use revival_constraints::Cind;
use revival_relation::{Schema, Table, Type, Value};

/// Configuration for the orders generator.
#[derive(Clone, Debug)]
pub struct OrdersConfig {
    /// Number of CD tuples.
    pub cds: usize,
    /// Number of non-witness book tuples (catalog padding).
    pub extra_books: usize,
    /// Fraction of CDs that are audio books (pattern-applicable).
    pub audio_fraction: f64,
    /// Fraction of audio-book CDs lacking a witness (the error rate).
    pub violation_rate: f64,
    pub seed: u64,
}

impl Default for OrdersConfig {
    fn default() -> Self {
        OrdersConfig {
            cds: 1000,
            extra_books: 500,
            audio_fraction: 0.3,
            violation_rate: 0.05,
            seed: 42,
        }
    }
}

/// Generated instance + ground truth.
pub struct OrdersData {
    pub cd: Table,
    pub book: Table,
    pub cd_schema: Schema,
    pub book_schema: Schema,
    /// Number of audio-book CDs generated without a witness.
    pub planted_violations: usize,
}

/// `cd(album, price, genre)`.
pub fn cd_schema() -> Schema {
    Schema::builder("cd")
        .attr("album", Type::Str)
        .attr("price", Type::Int)
        .attr("genre", Type::Str)
        .build()
}

/// `book(title, price, format)`.
pub fn book_schema() -> Schema {
    Schema::builder("book")
        .attr("title", Type::Str)
        .attr("price", Type::Int)
        .attr("format", Type::Str)
        .build()
}

/// The paper's CIND.
pub fn standard_cind(cd: &Schema, book: &Schema) -> Cind {
    parse_cinds(
        "cd(album, price; genre='a-book') <= book(title, price; format='audio')",
        &[cd.clone(), book.clone()],
    )
    .expect("standard cind parses")
    .remove(0)
}

fn title(i: usize) -> String {
    format!("title-{i:06}")
}

/// Generate per `cfg`.
pub fn generate(cfg: &OrdersConfig) -> OrdersData {
    let cd_schema = cd_schema();
    let book_schema = book_schema();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut cd = Table::with_capacity(cd_schema.clone(), cfg.cds);
    let mut book = Table::with_capacity(book_schema.clone(), cfg.extra_books + cfg.cds);
    const GENRES: &[&str] = &["pop", "rock", "jazz", "classical"];
    const FORMATS: &[&str] = &["print", "hardcover", "ebook"];
    let mut planted = 0usize;

    for i in 0..cfg.cds {
        let price = Value::Int(rng.gen_range(5..60));
        if rng.gen_bool(cfg.audio_fraction) {
            let t = title(i);
            let violating = rng.gen_bool(cfg.violation_rate);
            cd.push_unchecked(vec![t.clone().into(), price.clone(), "a-book".into()]);
            if violating {
                planted += 1;
                // Near-miss witness: same title, wrong format — exactly
                // the error the CIND is designed to catch.
                book.push_unchecked(vec![
                    t.into(),
                    price,
                    Value::from(*FORMATS.choose(&mut rng).unwrap()),
                ]);
            } else {
                book.push_unchecked(vec![t.into(), price, "audio".into()]);
            }
        } else {
            cd.push_unchecked(vec![
                title(i).into(),
                price,
                Value::from(*GENRES.choose(&mut rng).unwrap()),
            ]);
        }
    }
    for i in 0..cfg.extra_books {
        book.push_unchecked(vec![
            format!("extra-{i:06}").into(),
            Value::Int(rng.gen_range(5..60)),
            Value::from(*FORMATS.choose(&mut rng).unwrap()),
        ]);
    }
    OrdersData { cd, book, cd_schema, book_schema, planted_violations: planted }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revival_detect::{DetectJob, Detector, NativeEngine};
    use revival_relation::Catalog;

    #[test]
    fn planted_violations_are_found_exactly() {
        let data = generate(&OrdersConfig { cds: 800, violation_rate: 0.1, ..Default::default() });
        let cinds = [standard_cind(&data.cd_schema, &data.book_schema)];
        let mut catalog = Catalog::new();
        catalog.register(data.cd);
        catalog.register(data.book);
        let report = NativeEngine.run(&DetectJob::on_catalog(&catalog, &[]).with_cinds(&cinds));
        assert_eq!(report.unwrap().len(), data.planted_violations);
        assert!(data.planted_violations > 0);
    }

    #[test]
    fn zero_rate_means_satisfied() {
        let data = generate(&OrdersConfig { violation_rate: 0.0, ..Default::default() });
        let cind = standard_cind(&data.cd_schema, &data.book_schema);
        assert!(cind.satisfied_by(&data.cd, &data.book));
    }

    #[test]
    fn deterministic() {
        let cfg = OrdersConfig { seed: 3, ..Default::default() };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.planted_violations, b.planted_violations);
        assert_eq!(a.cd.diff_cells(&b.cd), 0);
    }
}
