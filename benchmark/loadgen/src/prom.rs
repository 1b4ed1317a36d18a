//! Prometheus text exposition → a map from series (`name{labels}` exactly
//! as printed) to value, and deltas between two scrapes.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Default)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        let mut map = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // The value follows the last space: label values may hold spaces.
            if let Some((series, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    map.insert(series.trim().to_string(), v);
                }
            }
        }
        Scrape(map)
    }

    /// A series the server does not print reads as 0, the value it would
    /// have before its first event.
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    pub fn has(&self, series: &str) -> bool {
        self.0.contains_key(series)
    }

    /// Sum over every series of `name` whose label set contains `label`.
    pub fn sum_where(&self, name: &str, label: &str) -> f64 {
        let prefix = format!("{name}{{");
        self.0
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix) && k.contains(label))
            .map(|(_, v)| v)
            .sum()
    }
}

/// `after − before`, series by series.
pub struct Delta<'a> {
    pub before: &'a Scrape,
    pub after: &'a Scrape,
}

impl Delta<'_> {
    pub fn get(&self, series: &str) -> f64 {
        self.after.get(series) - self.before.get(series)
    }

    pub fn sum_where(&self, name: &str, label: &str) -> f64 {
        self.after.sum_where(name, label) - self.before.sum_where(name, label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_counters_labels_and_skips_comments() {
        let s = Scrape::parse(
            "# TYPE a counter\na 3\nb{path=\"/query\",status=\"200\"} 7\nb{path=\"/query\",status=\"429\"} 2\n\nc 1.5\nbroken\n",
        );
        assert_eq!(s.get("a"), 3.0);
        assert_eq!(s.get("b{path=\"/query\",status=\"200\"}"), 7.0);
        assert_eq!(s.sum_where("b", "path=\"/query\""), 9.0);
        assert_eq!(s.sum_where("b", "status=\"429\""), 2.0);
        assert_eq!(s.get("c"), 1.5);
        assert_eq!(s.get("missing"), 0.0);
        assert!(!s.has("broken"));
    }

    #[test]
    fn delta_subtracts_series_by_series() {
        let before = Scrape::parse("a 3\n");
        let after = Scrape::parse("a 10\nnew 4\n");
        let d = Delta {
            before: &before,
            after: &after,
        };
        assert_eq!(d.get("a"), 7.0);
        assert_eq!(d.get("new"), 4.0);
    }

    /// The committed golden page is the contract for the metric names the
    /// benchmark reads; `<T>` stands for a timing and does not parse.
    #[test]
    fn reads_the_committed_golden_metrics_page() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/golden/serve_metrics.txt"
        );
        let text = std::fs::read_to_string(path).expect("tests/golden/serve_metrics.txt");
        let s = Scrape::parse(&text);
        assert_eq!(s.get("urbane_cache_misses_total"), 2.0);
        assert_eq!(
            s.get("urbane_request_latency_ms_count{path=\"/query\"}"),
            3.0
        );
        assert_eq!(s.sum_where("urbane_requests_total", "path=\"/query\""), 3.0);
        for series in crate::runner::SCRAPED_SERIES {
            assert!(
                text.contains(&format!("{series} ")),
                "{series} is not on the golden page"
            );
        }
    }
}
