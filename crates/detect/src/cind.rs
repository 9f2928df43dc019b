//! CIND violation detection across two relations.
//!
//! A CIND `(R1[X; Xp] ⊆ R2[Y; Yp])` is violated by every `R1`-tuple that
//! matches the source pattern but has no target-side witness. Detection
//! reads [`Cind::witnesses`]: the distinct keys of the `Yp`-carrying
//! target tuples, indexed in the target's own symbols and translated
//! into the source's once each, then one hash probe per applicable
//! source tuple on its symbol columns — `O(|R1| + |R2|)`, the scaling
//! measured in experiment E7. A SQL formulation is also generated for
//! parity with the paper's SQL-based techniques (\[4\] §SQL).

use crate::engine::{cind_profile_name, DetectJob};
use crate::report::Violation;
use revival_constraints::cind::Cind;
use revival_relation::{map_chunks, Error, Result, Table};

/// The witness probe: the witness keys build once and are shared
/// read-only while the source's slots shard across `jobs` contiguous
/// ranges; the findings concatenate in chunk order, i.e. row order.
fn probe(cind: &Cind, from: &Table, to: &Table, cind_idx: usize, jobs: usize) -> Vec<Violation> {
    let witnesses = cind.witnesses(from, to);
    let (n, step) = (from.slots(), from.slots().div_ceil(jobs.max(1)).max(1));
    let shards: Vec<_> = (0..n).step_by(step).map(|s| s..n.min(s + step)).collect();
    let violation = |tuple| Violation::CindMissingWitness { cind: cind_idx, tuple };
    let per_chunk = map_chunks(&shards, jobs, |chunk| {
        let missing = chunk.iter().flat_map(|slots| witnesses.missing(slots.clone()));
        missing.map(violation).collect::<Vec<_>>()
    });
    let mut found = Vec::with_capacity(per_chunk.iter().map(|(f, _)| f.len()).sum());
    per_chunk.into_iter().for_each(|(f, _)| found.extend(f));
    found
}

/// Detect the CIND portion of a job over `jobs` shards, appending to
/// `out` in suite order. With a profile, each CIND's wall time lands on
/// its row (and a trace span when tracing is on).
pub(crate) fn detect_cinds(
    job: &DetectJob<'_>,
    jobs: usize,
    mut profile: Option<&mut revival_obs::JobProfile>,
    out: &mut Vec<Violation>,
) -> Result<()> {
    if job.cinds.is_empty() {
        return Ok(());
    }
    let catalog = job
        .catalog()
        .ok_or_else(|| Error::Io("CIND detection needs a catalog-backed job".into()))?;
    for (j, cind) in job.cinds.iter().enumerate() {
        let from = catalog.get(&cind.from_relation)?;
        let to = catalog.get(&cind.to_relation)?;
        let start = std::time::Instant::now();
        out.extend(probe(cind, from, to, j, jobs));
        if let Some(p) = profile.as_deref_mut() {
            let us = start.elapsed().as_micros() as u64;
            let name = cind_profile_name(job, j);
            revival_obs::trace::record_at(&name, start, us);
            p.entry(&name, "cind").wall_us += us;
        }
    }
    Ok(())
}

/// Generate the SQL query of Bravo et al. that selects source tuples
/// without a witness — a `NOT IN`-free formulation via grouped counts is
/// not expressible in our subset, so the shipped engine path uses the
/// native detector; the generated text documents the DBMS encoding.
pub fn generate_sql(
    cind: &Cind,
    from_schema: &revival_relation::Schema,
    to_schema: &revival_relation::Schema,
) -> String {
    let from_cols: Vec<&str> = cind.from_attrs.iter().map(|&a| from_schema.attr_name(a)).collect();
    let mut conds: Vec<String> = cind
        .from_conds
        .iter()
        .map(|c| format!("s.{} = '{}'", from_schema.attr_name(c.attr), c.value.render()))
        .collect();
    let join_conds: Vec<String> = cind
        .from_attrs
        .iter()
        .zip(&cind.to_attrs)
        .map(|(&f, &t)| format!("s.{} = w.{}", from_schema.attr_name(f), to_schema.attr_name(t)))
        .collect();
    let target_conds: Vec<String> = cind
        .to_conds
        .iter()
        .map(|c| format!("w.{} = '{}'", to_schema.attr_name(c.attr), c.value.render()))
        .collect();
    conds.extend(std::iter::once(format!(
        "NOT EXISTS (SELECT * FROM {} w WHERE {})",
        cind.to_relation,
        join_conds.into_iter().chain(target_conds).collect::<Vec<_>>().join(" AND ")
    )));
    format!(
        "SELECT s.{} FROM {} s WHERE {}",
        from_cols.join(", s."),
        cind.from_relation,
        conds.join(" AND ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use revival_constraints::parser::parse_cinds;
    use revival_relation::{Schema, Type, Value};

    fn schemas() -> (Schema, Schema) {
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
        (cd, book)
    }

    fn paper_cind(cd: &Schema, book: &Schema) -> Cind {
        parse_cinds(
            "cd(album, price; genre='a-book') <= book(title, price; format='audio')",
            &[cd.clone(), book.clone()],
        )
        .unwrap()
        .remove(0)
    }

    /// The paper's CIND over `cd` and `book`, through the engine layer.
    fn detect(cind: &Cind, cd: Table, book: Table) -> crate::ViolationReport {
        use crate::engine::{Detector, NativeEngine};
        let mut catalog = revival_relation::Catalog::new();
        catalog.register(cd);
        catalog.register(book);
        let job = DetectJob::on_catalog(&catalog, &[]).with_cinds(std::slice::from_ref(cind));
        NativeEngine.run(&job).unwrap()
    }

    #[test]
    fn detects_missing_witness() {
        let (cd_s, book_s) = schemas();
        let cind = paper_cind(&cd_s, &book_s);
        let mut cd = Table::new(cd_s);
        cd.push(vec!["Dune".into(), Value::Int(20), "a-book".into()]).unwrap(); // ok
        cd.push(vec!["Foundation".into(), Value::Int(15), "a-book".into()]).unwrap(); // violation
        cd.push(vec!["Thriller".into(), Value::Int(9), "pop".into()]).unwrap(); // n/a
        let mut book = Table::new(book_s);
        book.push(vec!["Dune".into(), Value::Int(20), "audio".into()]).unwrap();
        book.push(vec!["Foundation".into(), Value::Int(15), "print".into()]).unwrap();
        let report = detect(&cind, cd, book);
        assert_eq!(report.len(), 1);
        assert_eq!(report.violating_tuples().len(), 1);
    }

    #[test]
    fn detect_all_via_catalog() {
        let (cd_s, book_s) = schemas();
        let cind = paper_cind(&cd_s, &book_s);
        let mut cd = Table::new(cd_s);
        cd.push(vec!["X".into(), Value::Int(1), "a-book".into()]).unwrap();
        let report = detect(&cind, cd, Table::new(book_s));
        assert_eq!(report.len(), 1);
    }

    #[test]
    fn generated_sql_documents_encoding() {
        let (cd_s, book_s) = schemas();
        let cind = paper_cind(&cd_s, &book_s);
        let sql = generate_sql(&cind, &cd_s, &book_s);
        assert!(sql.contains("NOT EXISTS"));
        assert!(sql.contains("s.genre = 'a-book'"));
        assert!(sql.contains("w.format = 'audio'"));
    }
}
