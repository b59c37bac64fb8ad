//! Tiny-size self-test of all four workloads: every metric a run prints
//! matches `BENCHMARK.json` by name and unit, every output check
//! passes, virtual metrics replay exactly for a seed, and a different
//! seed reaches the inputs.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::Path;

use vino_perfbench::{json_line, run, Config, Outcome, Scale, END_TO_END, PER_LAYER, WORKLOADS};

fn tiny(seed: u64, trace: bool) -> Config {
    Config { seed, seconds: 0.0, trace, scale: Scale::Tiny }
}

fn manifest() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The string value of `key` in one flat JSON object's text.
fn field(obj: &str, key: &str) -> Option<String> {
    let at = obj.find(&format!("\"{key}\""))? + key.len() + 2;
    let rest = &obj[at..];
    let rest = &rest[rest.find('"')? + 1..];
    Some(rest[..rest.find('"')?].to_string())
}

/// `(name, unit)` of each object in the manifest's `key` array, in
/// order. The manifest's strings hold no brackets or braces, so a
/// bracket scan is enough.
fn entries(json: &str, key: &str) -> Vec<(String, Option<String>)> {
    let at = json.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key} in manifest"));
    let open = at + json[at..].find('[').expect("an array");
    let close = open + json[open..].find(']').expect("a closed array");
    json[open + 1..close]
        .split('}')
        .filter(|obj| obj.contains("\"name\""))
        .map(|obj| (field(obj, "name").expect("named"), field(obj, "unit")))
        .collect()
}

fn table(rows: &[(&str, &str)]) -> Vec<(String, Option<String>)> {
    rows.iter().map(|(n, u)| (n.to_string(), Some(u.to_string()))).collect()
}

#[test]
fn every_printed_name_matches_the_manifest() {
    let json = manifest();
    let declared: Vec<String> = entries(&json, "workloads").into_iter().map(|e| e.0).collect();
    assert_eq!(declared, WORKLOADS);
    assert_eq!(entries(&json, "end_to_end"), table(&END_TO_END));
    assert_eq!(entries(&json, "per_layer"), table(&PER_LAYER));
    for w in WORKLOADS {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let o = run(w, &tiny(7, trace)).unwrap_or_else(|e| panic!("{w}: {e}"));
            assert!(o.correct, "{w} trace={trace}: {}", o.notes);
            let printed: Vec<_> =
                o.metrics.iter().map(|(n, u, _)| (n.to_string(), Some(u.to_string()))).collect();
            assert_eq!(printed, entries(&json, key), "{w} trace={trace}");
            let line = json_line(&o).expect("finite metrics");
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
        }
    }
}

#[test]
fn virtual_metrics_replay_exactly_and_follow_the_seed() {
    let virt = |o: &Outcome| o.metrics.iter().find(|m| m.0 == "virt_us_per_op").expect("listed").2;
    for w in WORKLOADS {
        let a = run(w, &tiny(3, false)).unwrap_or_else(|e| panic!("{w}: {e}"));
        let b = run(w, &tiny(3, false)).unwrap_or_else(|e| panic!("{w}: {e}"));
        let c = run(w, &tiny(4, false)).unwrap_or_else(|e| panic!("{w}: {e}"));
        assert!(a.det.len() > 5, "{w}: virtual rows recorded");
        assert_eq!(a.det, b.det, "{w}: same seed, same virtual metrics and counters");
        assert_eq!(virt(&a), virt(&b), "{w}");
        assert_eq!(a.inputs, b.inputs, "{w}: same seed, same inputs");
        assert_ne!(a.inputs, c.inputs, "{w}: the seed must reach the inputs");
    }
}
