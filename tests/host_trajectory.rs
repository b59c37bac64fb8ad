//! The committed host trajectory, `BENCH_host.json`: every row names a
//! workload and a metric that `BENCHMARK.json` declares, in that
//! metric's unit, and carries parent and change medians with their
//! IQRs and the pairs the change won.
//!
//! A change that claims a host-clock gain appends its rows, measured in
//! alternating parent/change perfbench pairs in one session.

use std::path::Path;

fn read(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The flat objects of the array under `key`. Neither file nests an
/// object in an array element or puts a bracket or brace in a string,
/// so a bracket scan is enough.
fn objects<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let at = json.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key}"));
    let open = at + json[at..].find('[').expect("an array");
    let close = open + json[open..].find(']').expect("a closed array");
    json[open + 1..close].split('}').filter(|o| o.contains('"')).collect()
}

/// The raw text of `key`'s value in a flat object: a string without
/// its quotes, or a number.
fn value<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let at = obj.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = obj[at..].trim_start();
    match rest.strip_prefix('"') {
        Some(s) => s.split('"').next(),
        None => rest.split([',', '}']).next().map(str::trim),
    }
}

fn number(row: &str, key: &str) -> f64 {
    let v = value(row, key).unwrap_or_else(|| panic!("row lacks {key}: {row}"));
    v.parse().unwrap_or_else(|e| panic!("{key} = {v}: {e}"))
}

#[test]
fn every_row_names_a_declared_workload_and_metric() {
    let (manifest, host) = (read("BENCHMARK.json"), read("BENCH_host.json"));
    let workloads: Vec<&str> =
        objects(&manifest, "workloads").iter().filter_map(|w| value(w, "name")).collect();
    let metrics: Vec<(&str, &str)> = ["end_to_end", "per_layer"]
        .iter()
        .flat_map(|key| objects(&manifest, key))
        .map(|m| (value(m, "name").expect("named"), value(m, "unit").expect("a unit")))
        .collect();
    assert_eq!(workloads.len(), 4, "{workloads:?}");
    assert!(metrics.len() > 8, "{metrics:?}");

    let rows = objects(&host, "rows");
    assert!(!rows.is_empty(), "BENCH_host.json has no rows");
    for row in rows {
        let field = |key| value(row, key).unwrap_or_else(|| panic!("row lacks {key}: {row}"));
        for key in ["parent", "change"] {
            assert!(!field(key).is_empty(), "{key} is empty: {row}");
        }
        let workload = field("workload");
        assert!(workloads.contains(&workload), "undeclared workload {workload}");
        let metric = field("metric");
        let unit = metrics.iter().find(|m| m.0 == metric).map(|m| m.1);
        assert_eq!(unit, Some(field("unit")), "metric {metric}: undeclared, or in another unit");
        for key in ["seed", "seconds", "parent_median", "change_median"] {
            assert!(number(row, key) >= 0.0, "{key}: {row}");
        }
        for key in ["parent_iqr", "change_iqr"] {
            let iqr = number(row, key);
            assert!(iqr >= 0.0 && iqr.is_finite(), "{key}: {row}");
        }
        let (pairs, won) = (number(row, "pairs"), number(row, "pairs_won"));
        assert!(pairs >= 1.0 && won <= pairs && won.fract() == 0.0, "pairs: {row}");
    }
}
