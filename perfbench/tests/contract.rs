//! `BENCHMARK.json` names exactly the metrics the binary prints, with the
//! same units.

use perfbench::metrics::{per_layer, END_TO_END};

fn section<'a>(json: &'a str, key: &str) -> &'a str {
    let start = json.find(&format!("\"{key}\"")).expect("section present");
    let rest = &json[start..];
    &rest[..rest.find(']').expect("section closes")]
}

fn entries(section: &str) -> Vec<(String, String)> {
    section
        .split('{')
        .skip(1)
        .map(|e| {
            let field = |k: &str| {
                let at = e.find(&format!("\"{k}\"")).expect("field present") + k.len() + 2;
                let v = &e[at..];
                let v = &v[v.find('"').unwrap() + 1..];
                v[..v.find('"').unwrap()].to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_binary() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(entries(section(&json, "end_to_end")), e2e);
    let layer: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(entries(section(&json, "per_layer")), layer);
}
