//! The wire API: response bodies with run-manifest provenance.
//!
//! A successful query response body is exactly the bytes the cache
//! stores:
//!
//! ```json
//! {"manifest": { ...ola.run-manifest/v1... }, "result": { ... }}
//! ```
//!
//! The manifest is built **once, at fill time** — its timestamp, seeds,
//! the annotations recorded while the query ran, and the SHA-256 of the
//! rendered result are frozen into the cached bytes. A cache hit
//! therefore returns a body *bit-identical* to the cold computation,
//! artifact hashes included; per-response state (hit/miss, the content
//! address) travels in `X-Ola-Cache` / `X-Ola-Key` headers, outside the
//! cached bytes.
//!
//! The manifest's single output record names the rendered result document
//! itself (`results/serve/<experiment>.result.json`); the load generator
//! materializes that file from the response and hands the manifest to the
//! unmodified `manifest_check` binary, which re-hashes it — an end-to-end
//! proof that served bytes match their recorded provenance.
//!
//! Per-request manifests deliberately carry an **empty metric snapshot**:
//! the process-global registry cannot attribute concurrent engine
//! activity to one request, and recording a racy delta would break the
//! bit-identity guarantee. Operational metrics live at `/metrics`.

use ola_core::obs::json::JsonValue;
use ola_core::obs::{self, OutputRecord, RunManifest};
use ola_core::CacheKey;
use ola_synth::{Query, QueryError};
use std::sync::OnceLock;

/// Relative directory (as recorded in manifests) for materialized result
/// documents.
pub const RESULT_DIR: &str = "results/serve";

/// The manifest experiment name for `query` under its content address:
/// `serve_<kind>_<key prefix>` — unique per canonical query, filesystem-
/// and `manifest_check`-friendly.
#[must_use]
pub fn experiment_name(query: &Query, key: &CacheKey) -> String {
    format!("serve_{}_{}", query.kind(), &key.hex()[..12])
}

fn git_once() -> &'static str {
    static GIT: OnceLock<String> = OnceLock::new();
    GIT.get_or_init(obs::git_describe)
}

/// Runs `query` and renders the full cacheable response body, capturing
/// per-request annotations into the embedded manifest. This is the
/// cache's fill function: everything inside the returned bytes is
/// deterministic except the fill timestamp, which the cache freezes by
/// storing the bytes.
///
/// # Errors
///
/// Propagates [`QueryError`] from the analysis itself.
pub fn fill_body(query: &Query, key: &CacheKey) -> Result<Vec<u8>, QueryError> {
    let scope = obs::AnnotationScope::new();
    let result = {
        let _guard = scope.install();
        query.run()?
    };
    let rendered = result.render();
    let experiment = experiment_name(query, key);
    let (backend, seeds) = match query {
        Query::Pareto { backend, seed, .. }
        | Query::Sweep { backend, seed, .. }
        | Query::Dsp { backend, seed, .. } => {
            (backend.label().to_owned(), vec![("query".to_owned(), *seed)])
        }
        Query::Sta { .. } | Query::Lint { .. } | Query::Verify { .. } => {
            ("none".to_owned(), Vec::new())
        }
    };
    let manifest = RunManifest {
        experiment: experiment.clone(),
        created_unix_ms: RunManifest::now_unix_ms(),
        git: git_once().to_owned(),
        backend,
        scale: 1.0,
        seeds,
        ola_threads: ola_core::parallel::thread_config().record(),
        trace: obs::mode().label().to_owned(),
        annotations: scope.drain(),
        // Spans stay out of per-request manifests: the span ring is
        // process-global and draining it here would steal concurrent
        // requests' records.
        spans: Vec::new(),
        metrics: ola_core::obs::MetricSnapshot::default(),
        outputs: vec![OutputRecord {
            path: format!("{RESULT_DIR}/{experiment}.result.json"),
            bytes: rendered.len() as u64,
            sha256: ola_core::obs::sha256::hex_digest(rendered.as_bytes()),
        }],
    };
    let body =
        JsonValue::Object(vec![("manifest".into(), manifest.to_json()), ("result".into(), result)]);
    Ok(body.render().into_bytes())
}

/// A JSON error body (`{"error": ...}`).
#[must_use]
pub fn error_body(message: &str) -> String {
    JsonValue::Object(vec![("error".into(), JsonValue::str(message))]).render()
}

/// Renders the process metrics registry (counters + gauges) as JSON for
/// the `/metrics` endpoint.
#[must_use]
pub fn metrics_body() -> String {
    let snap = obs::registry().snapshot();
    JsonValue::Object(vec![
        (
            "counters".into(),
            JsonValue::Object(
                snap.counters.iter().map(|(k, &v)| (k.clone(), JsonValue::U64(v))).collect(),
            ),
        ),
        (
            "gauges".into(),
            JsonValue::Object(
                snap.gauges.iter().map(|(k, &v)| (k.clone(), JsonValue::int(v))).collect(),
            ),
        ),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ola_core::obs::json;
    use ola_synth::Limits;

    fn query(body: &str) -> Query {
        Query::from_json(&json::parse(body).unwrap(), &Limits::default()).unwrap()
    }

    #[test]
    fn fill_body_embeds_a_schema_valid_manifest_with_matching_hashes() {
        let q = query(r#"{"kind":"lint","expr":"y = a * 0.5 + b","width":3}"#);
        let key = q.cache_key();
        let body = fill_body(&q, &key).unwrap();
        let doc = json::parse(std::str::from_utf8(&body).unwrap()).unwrap();

        let manifest = doc.get("manifest").expect("manifest present");
        assert_eq!(manifest.get("schema").unwrap().as_str(), Some(ola_core::obs::SCHEMA));
        let exp = manifest.get("experiment").unwrap().as_str().unwrap();
        assert!(exp.starts_with("serve_lint_"), "experiment {exp:?}");

        // The recorded output is the result document itself: re-rendering
        // the parsed result must reproduce the recorded size and SHA-256.
        let result = doc.get("result").expect("result present");
        let rendered = result.render();
        let outputs = manifest.get("outputs").unwrap().as_array().unwrap();
        assert_eq!(outputs.len(), 1);
        assert_eq!(outputs[0].get("bytes").unwrap().as_u64(), Some(rendered.len() as u64));
        assert_eq!(
            outputs[0].get("sha256").unwrap().as_str().unwrap(),
            ola_core::obs::sha256::hex_digest(rendered.as_bytes()),
            "served artifact hash is verifiable from the response alone"
        );
    }

    #[test]
    fn experiment_names_are_stable_and_keyed() {
        let q = query(r#"{"kind":"sta","expr":"y = a + b","width":2}"#);
        let key = q.cache_key();
        let name = experiment_name(&q, &key);
        assert_eq!(name, format!("serve_sta_{}", &key.hex()[..12]));
        assert_eq!(name, experiment_name(&q, &key), "deterministic");
    }

    #[test]
    fn verify_queries_flow_through_the_wire_layer() {
        let q = query(r#"{"kind":"verify","expr":"y = a * 0.5 + b","width":2,"ts_points":3}"#);
        let key = q.cache_key();
        let name = experiment_name(&q, &key);
        assert!(name.starts_with("serve_verify_"), "experiment {name:?}");
        let body = fill_body(&q, &key).unwrap();
        let doc = json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        let result = doc.get("result").expect("result present");
        assert_eq!(result.get("kind").unwrap().as_str(), Some("verify"));
        assert_eq!(result.get("passes_verdict").unwrap().as_str(), Some("equivalent"));
    }

    #[test]
    fn dsp_queries_flow_through_the_wire_layer() {
        let q = query(r#"{"kind":"dsp","kernel":"fir","size":3,"width":4,"ts_points":3}"#);
        let key = q.cache_key();
        let name = experiment_name(&q, &key);
        assert!(name.starts_with("serve_dsp_"), "experiment {name:?}");
        let body = fill_body(&q, &key).unwrap();
        let doc = json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        let result = doc.get("result").expect("result present");
        assert_eq!(result.get("kind").unwrap().as_str(), Some("dsp"));
        assert!(result.get("fused").is_some() && result.get("unfused").is_some());
    }

    #[test]
    fn error_and_metrics_bodies_are_valid_json() {
        let e = error_body("no \"such\" thing");
        assert!(json::parse(&e).unwrap().get("error").is_some());
        let m = metrics_body();
        let doc = json::parse(&m).unwrap();
        assert!(doc.get("counters").is_some());
        assert!(doc.get("gauges").is_some());
    }
}
