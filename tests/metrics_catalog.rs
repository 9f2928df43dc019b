//! The metrics catalog in README's *Observability* section names every
//! metric the product registers, and nothing else: drive one detect,
//! one repair, one discover and every verb [`ShardedSession::handle`]
//! answers (WAL on, so the durability instruments register too) and bind
//! the TCP tier, then
//! require each name in the global registry — label set stripped — to
//! have a catalog row of its kind, and each catalog row to name a
//! metric the drive registered. (One `#[test]` only: the registry is
//! process-wide.)

use revival::constraints::parser::parse_cfds;
use revival::detect::{DetectJob, Detector, NativeEngine};
use revival::discovery::{DiscoverJob, DiscoverOptions, DiscoveryEngine, SequentialDiscovery};
use revival::relation::csv;
use revival::repair::{BatchRepair, CostModel};
use revival::stream::{Request, ServeOptions, Server, ShardedSession};

const CSV: &str = "cc,zip,street,city\n\
                   uk,EH8,Crichton,edi\n\
                   uk,EH8,Mayfield,edi\n\
                   us,07974,Mtn,mh\n\
                   us,07974,Mtn,nyc\n\
                   uk,G1,High,gla\n";

const CFDS: &str = "customer([cc='uk', zip] -> [street])\ncustomer([zip] -> [city])";

/// The `(name, kind)` rows of the catalog table in README's
/// *Observability* section, label sets stripped from the names.
fn catalog() -> Vec<(String, String)> {
    let readme = include_str!("../README.md");
    let section = readme.split("### Observability\n").nth(1).expect("an Observability section");
    let section = section.split("\n### ").next().unwrap_or_default();
    section
        .lines()
        .filter_map(|line| {
            let mut cells = line.strip_prefix("| `")?.split('|').map(str::trim);
            let name = cells.next()?.trim_end_matches('`');
            let name = name.split('{').next().unwrap_or_default();
            Some((name.to_string(), cells.next()?.to_string()))
        })
        .collect()
}

#[test]
fn every_registered_metric_is_in_the_readme_catalog() {
    revival_obs::set_enabled(true);
    let table = csv::read_table_infer("customer", CSV).unwrap();
    let cfds = parse_cfds(CFDS, table.schema()).unwrap();
    NativeEngine.run(&DetectJob::on_table(&table, &cfds)).unwrap();
    BatchRepair::new(&cfds, CostModel::uniform(4)).repair(&table).unwrap();
    let options = DiscoverOptions { min_support: 1, ..DiscoverOptions::default() };
    SequentialDiscovery.run(&DiscoverJob::on_table(&table, options)).unwrap();

    let dir = std::env::temp_dir().join(format!("revival_metrics_catalog_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = ServeOptions { wal: true, state: Some(dir.clone()), ..ServeOptions::default() };
    let discover = |register| Request::Discover {
        table: "customer".into(),
        min_support: 1,
        max_lhs: 2,
        confidence_pct: 100,
        register,
    };
    let requests = [
        Request::Register { table: "customer".into(), csv: CSV.into(), cfds: CFDS.into() },
        Request::Register {
            table: "depot".into(),
            csv: "zip,site\nEH8,north\n".into(),
            cfds: String::new(),
        },
        Request::Cinds { text: "customer(zip; cc='uk') <= depot(zip; site='north')".into() },
        Request::Append { table: "customer".into(), row: "uk,EH8,Mayfield,gla".into() },
        Request::Update {
            table: "customer".into(),
            tuple: 0,
            attr: "city".into(),
            value: "edi".into(),
        },
        Request::Delete { table: "customer".into(), tuple: 1 },
        Request::Count,
        Request::Report { max: 5 },
        Request::Repair { table: "customer".into() },
        discover(false),
        discover(true),
        Request::Checkpoint,
    ];
    {
        let (tier, _) = ShardedSession::open(&opts).unwrap();
        for request in &requests {
            let response = tier.handle(request);
            assert!(response.is_ok(), "{request:?}: {response:?}");
        }
    }
    // Reopening restores the checkpoint: the decode side registers.
    let (tier, restored) = ShardedSession::open(&opts).unwrap();
    assert_eq!(restored.relations, 2);
    drop(tier);
    // Binding the TCP tier (tracing on) registers its own instruments.
    let trace_out = Some(dir.join("trace.json"));
    let opts = ServeOptions { trace_out, ..ServeOptions::default() };
    drop(Server::bind_opts("127.0.0.1:0", &opts).unwrap());
    std::fs::remove_dir_all(&dir).ok();

    let catalog = catalog();
    let snapshot = revival_obs::global().snapshot();
    let registered = (snapshot.counters.iter().map(|(n, _)| (n, "counter")))
        .chain(snapshot.gauges.iter().map(|(n, _)| (n, "gauge")))
        .chain(snapshot.histograms.iter().map(|(n, _)| (n, "histogram")));
    let mut seen: Vec<&str> = Vec::new();
    for (name, kind) in registered {
        let base = name.split('{').next().unwrap_or_default();
        let row = catalog.iter().find(|(n, _)| n == base);
        let row = row.unwrap_or_else(|| panic!("`{base}` is registered but not in the catalog"));
        assert_eq!(row.1, kind, "`{base}` is a {kind}, the catalog says {}", row.1);
        seen.push(base);
    }
    assert!(
        seen.len() >= 30,
        "only {} metric(s) registered: the workload missed a layer",
        seen.len()
    );
    // The other direction: a documented row the drive never registers is
    // stale, or the drive misses the call that emits it.
    let stale: Vec<&str> =
        catalog.iter().map(|(n, _)| n.as_str()).filter(|n| !seen.contains(n)).collect();
    assert!(stale.is_empty(), "documented but never registered by the drive: {stale:?}");
}
