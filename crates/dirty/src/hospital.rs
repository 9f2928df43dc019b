//! The HOSP-style scenario — the second canonical dataset of the CFD
//! literature (US hospital-quality data; used in the experiments of
//! \[8\] and most follow-up papers).
//!
//! Schema (trimmed to the attributes the published suites constrain):
//! `hospital(provider, hname, city, state, zip, county, measure_code,
//! measure_name)`. The natural dependencies:
//!
//! * `provider → hname, city, state, zip` — provider number identifies
//!   the hospital;
//! * `zip → state` — a zip lies in one state;
//! * `measure_code → measure_name` — codes have canonical names;
//! * constant rows pinning well-known `(state, city)` pairs.

use crate::zipf::Zipf;
use rand::prelude::*;
use rand::rngs::StdRng;
use revival_constraints::parser::parse_cfds;
use revival_constraints::Cfd;
use revival_relation::{Schema, Table, Type, Value};

/// Attribute positions, for readable indexing.
pub mod attrs {
    pub const PROVIDER: usize = 0;
    pub const HNAME: usize = 1;
    pub const CITY: usize = 2;
    pub const STATE: usize = 3;
    pub const ZIP: usize = 4;
    pub const COUNTY: usize = 5;
    pub const MEASURE_CODE: usize = 6;
    pub const MEASURE_NAME: usize = 7;
}

/// Generator configuration.
#[derive(Clone, Debug)]
pub struct HospitalConfig {
    /// Number of rows (one row = one measure report of one provider).
    pub rows: usize,
    /// Number of distinct providers.
    pub providers: usize,
    /// Number of distinct measures.
    pub measures: usize,
    /// Zipf exponent for provider popularity.
    pub skew: f64,
    pub seed: u64,
}

impl Default for HospitalConfig {
    fn default() -> Self {
        HospitalConfig { rows: 1000, providers: 100, measures: 30, skew: 0.7, seed: 42 }
    }
}

/// Generated instance.
pub struct HospitalData {
    pub table: Table,
    pub schema: Schema,
}

/// The hospital schema.
pub fn schema() -> Schema {
    Schema::builder("hospital")
        .attr("provider", Type::Str)
        .attr("hname", Type::Str)
        .attr("city", Type::Str)
        .attr("state", Type::Str)
        .attr("zip", Type::Str)
        .attr("county", Type::Str)
        .attr("measure_code", Type::Str)
        .attr("measure_name", Type::Str)
        .build()
}

/// The standard HOSP-style CFD suite.
pub fn standard_cfds(schema: &Schema) -> Vec<Cfd> {
    parse_cfds(
        "hospital([provider] -> [hname, city, state, zip])\n\
         hospital([zip] -> [state])\n\
         hospital([measure_code] -> [measure_name])\n\
         hospital([city='boston'] -> [state='ma'])\n\
         hospital([city='birmingham'] -> [state='al'])",
        schema,
    )
    .expect("hospital suite parses")
}

const CITIES: &[(&str, &str)] = &[
    ("boston", "ma"),
    ("birmingham", "al"),
    ("dothan", "al"),
    ("opp", "al"),
    ("springfield", "ma"),
    ("worcester", "ma"),
    ("hartford", "ct"),
    ("stamford", "ct"),
    ("albany", "ny"),
    ("buffalo", "ny"),
];

const MEASURE_PREFIXES: &[&str] = &["ami", "hf", "pn", "scip", "ed", "op"];

/// Generate a clean instance (satisfies [`standard_cfds`] by
/// construction).
pub fn generate(cfg: &HospitalConfig) -> HospitalData {
    let schema = schema();
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Provider master records.
    struct Provider {
        id: String,
        name: String,
        city: &'static str,
        state: &'static str,
        zip: String,
        county: String,
    }
    let mut providers = Vec::with_capacity(cfg.providers);
    for p in 0..cfg.providers {
        let (city, state) = CITIES[rng.gen_range(0..CITIES.len())];
        providers.push(Provider {
            id: format!("P{p:05}"),
            name: format!("{} general hospital {p}", city),
            city,
            state,
            // One zip per provider, allocated per state so zip → state
            // holds by construction.
            zip: format!("{}{:03}", state_prefix(state), p),
            county: format!("{} county", city),
        });
    }
    // Measure master records.
    let measures: Vec<(String, String)> = (0..cfg.measures)
        .map(|m| {
            let code = format!("{}-{m:03}", MEASURE_PREFIXES[m % MEASURE_PREFIXES.len()]);
            (code.clone(), format!("measure {code} long name"))
        })
        .collect();

    let provider_dist = Zipf::new(cfg.providers, cfg.skew);
    let mut table = Table::with_capacity(schema.clone(), cfg.rows);
    for _ in 0..cfg.rows {
        let p = &providers[provider_dist.sample(&mut rng)];
        let (code, name) = &measures[rng.gen_range(0..measures.len())];
        table.push_unchecked(vec![
            Value::str(&p.id),
            Value::str(&p.name),
            p.city.into(),
            p.state.into(),
            Value::str(&p.zip),
            Value::str(&p.county),
            Value::str(code),
            Value::str(name),
        ]);
    }
    HospitalData { table, schema }
}

fn state_prefix(state: &str) -> u32 {
    match state {
        "ma" => 2,
        "ct" => 6,
        "ny" => 1,
        _ => 3, // al
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revival_detect::{DetectJob, Detector, NativeEngine};

    #[test]
    fn clean_data_satisfies_suite() {
        let data = generate(&HospitalConfig { rows: 800, ..Default::default() });
        for cfd in standard_cfds(&data.schema) {
            assert!(cfd.satisfied_by(&data.table), "violated: {}", cfd.display(&data.schema));
        }
    }

    #[test]
    fn row_and_domain_counts() {
        let cfg = HospitalConfig { rows: 500, providers: 40, measures: 10, ..Default::default() };
        let data = generate(&cfg);
        assert_eq!(data.table.len(), 500);
        let mut provs: Vec<Value> =
            data.table.rows().map(|(_, r)| r[attrs::PROVIDER].clone()).collect();
        provs.sort();
        provs.dedup();
        assert!(provs.len() <= 40);
        assert!(provs.len() > 10, "skewed but not degenerate");
    }

    #[test]
    fn noise_then_repair_roundtrip() {
        use crate::noise::{inject, NoiseConfig};
        let data = generate(&HospitalConfig { rows: 600, ..Default::default() });
        let suite = standard_cfds(&data.schema);
        let ds = inject(
            &data.table,
            &NoiseConfig::new(0.04, vec![attrs::STATE, attrs::MEASURE_NAME, attrs::HNAME], 9),
        );
        let n = NativeEngine.run(&DetectJob::on_table(&ds.dirty, &suite)).unwrap().len();
        assert!(n > 0, "noise must trip the hospital suite");
    }

    #[test]
    fn deterministic() {
        let cfg = HospitalConfig { seed: 11, ..Default::default() };
        assert_eq!(generate(&cfg).table.diff_cells(&generate(&cfg).table), 0);
    }
}
