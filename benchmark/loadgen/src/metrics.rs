//! The metric names and units of the benchmark, in one place:
//! `BENCHMARK.json`, the runner and the probe must agree on them (a test
//! below holds `BENCHMARK.json` to these lists).

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What a user of the server sees. Measured across the process boundary
/// with tracing off; reported by every workload. The 90th percentile is
/// measured too but sits with the layer metrics (`serve.query_p90_ms`): on
/// the host the benchmark was written on it spread by a fifth between equal
/// runs, too wide to gate on (benchmark/README.md, "Steadiness").
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics read from outside the program in every run: `/metrics`
/// deltas over the window and the `guard.elapsed_ms` of each answer.
pub const SCRAPED: [(&str, &str); 21] = [
    ("serve.overhead_p50_ms", "ms"),
    ("serve.handler_mean_ms", "ms"),
    ("serve.healthz_p50_us", "us"),
    ("serve.shed_total", "count"),
    ("serve.response_bytes_mean", "bytes"),
    ("serve.query_p90_ms", "ms"),
    ("serve.query_p99_ms", "ms"),
    ("urbane.service_p50_ms", "ms"),
    ("urbane.cache.hit_share", "share"),
    ("urbane.cache.entries", "count"),
    ("urbane.single_flight.followers", "count"),
    ("urbane.reload_p50_ms", "ms"),
    ("urbane.batch.mean_size", "count"),
    ("urbane.batch.window_wait_ms", "ms"),
    ("urbane.blockcache.hit_blocks", "count"),
    ("urbane.blockcache.residual_blocks", "count"),
    ("urbane.blockcache.bytes", "bytes"),
    ("urbane.guard.degraded_share", "share"),
    ("store.chunks_read_per_query", "count"),
    ("store.bytes_read_per_query", "bytes"),
    ("store.page_ins", "count"),
];

/// Per-layer metrics of the traced run: `benchmark/probe` replays the
/// workload's request bodies in-process and times each layer's public
/// functions. A layer the workload's requests never enter reports 0, and
/// so does every metric when the probe could not be built or run, which
/// `bench.probe_available` = 0 then says.
pub const PROBED: [(&str, &str); 42] = [
    ("bench.probe_available", "count"),
    ("serve.parse_us", "us"),
    ("serve.serialize_us", "us"),
    ("urbane.hit_us", "us"),
    ("urbane.miss_overhead_ms", "ms"),
    ("core.execute_ms", "ms"),
    ("core.prepare_ms", "ms"),
    ("core.prepared_execute_ms", "ms"),
    ("core.accurate_execute_ms", "ms"),
    ("core.accurate_fixup_share", "share"),
    ("core.batch_k4_ms_per_query", "ms"),
    ("raster.fragments_per_query", "count"),
    ("raster.points_in_per_query", "count"),
    ("raster.points_culled_share", "share"),
    ("raster.boundary_cells_per_query", "count"),
    ("raster.point_draw_mpts_s", "Mpts/s"),
    ("raster.polygon_fill_mpix_s", "Mpix/s"),
    ("data.bin_build_ms", "ms"),
    ("data.gen_ms", "ms"),
    ("data.filter_mask_ms", "ms"),
    ("data.filter_selectivity", "share"),
    ("data.bin_candidates_share", "share"),
    ("geometry.pip_ns", "ns"),
    ("geometry.json_parse_us", "us"),
    ("store.encode_ms", "ms"),
    ("store.bytes_per_row", "bytes"),
    ("store.read_chunk_ms", "ms"),
    ("store.materialize_ms", "ms"),
    ("index.join_stored_ms", "ms"),
    ("index.chunks_pruned_share", "share"),
    ("index.rows_scanned_per_query", "count"),
    ("index.peak_resident_rows", "count"),
    ("index.region_index_build_ms", "ms"),
    ("index.join_resident_ms", "ms"),
    ("bench.trace_overhead_share", "share"),
    ("bench.span_ledger_gap_share", "share"),
    ("trace.request_p50_ms", "ms"),
    ("trace.serve_parse_self_ms", "ms"),
    ("trace.urbane_query_self_ms", "ms"),
    ("trace.core_execute_ms", "ms"),
    ("trace.serve_serialize_self_ms", "ms"),
    ("trace.spans", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (
                    s("name"),
                    s(if key == "workloads" { "why" } else { "unit" }),
                )
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect(path)).unwrap();
        assert_eq!(listed(&doc, "end_to_end"), owned(&END_TO_END));
        let mut per_layer = owned(&SCRAPED);
        per_layer.extend(owned(&PROBED));
        assert_eq!(listed(&doc, "per_layer"), per_layer);
        let workloads: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed(&doc, "workloads"), workloads);
        for (_, why) in &workloads {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why too long: {why}"
            );
        }
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&SCRAPED)
            .chain(&PROBED)
            .map(|m| m.0)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a metric name is used twice");
    }
}
