//! Shared reporting helpers for the table/figure generators.
//!
//! Each generator in `benches/` reproduces one table or figure from the
//! paper and prints the paper's value next to the reproduced one, with the
//! relative deviation, so `cargo bench` regenerates the whole evaluation
//! section in one run. Results are summarized in `EXPERIMENTS.md`.
//!
//! The [`kernels`] module is different: it times the *real* CPU kernels
//! (packed vs naive GEMM, fused vs unfused top-2) and emits a
//! machine-readable `BENCH_kernels.json`; see `texid bench kernels`.
//! [`throughput`] measures concurrent serving (clients × coalescing) in
//! the simulated-time domain and emits `BENCH_throughput.json`; see
//! `texid bench throughput`. [`ivf`] sweeps the coarse quantizer's
//! `(nlist, nprobe)` grid for recall@1 vs effective throughput and emits
//! `BENCH_ivf.json`; see `texid bench ivf`.

pub mod ivf;
pub mod kernels;
pub mod throughput;

/// Structural validation of an emitted `BENCH_*.json` report, on the value
/// `texid obs diff` reads the same files into: the text parses, carries
/// exactly `schema`, every `top` key, and a non-empty `entries` array whose
/// every element has every `per_entry` key.
fn validate_report(
    json: &str,
    schema: &str,
    top: &[&str],
    per_entry: &[&str],
) -> Result<(), String> {
    let v = texid_distrib::json::parse(json).map_err(|e| format!("not JSON: {e}"))?;
    if v.get("schema").and_then(|s| s.as_str()) != Some(schema) {
        return Err(format!("missing schema tag {schema:?}"));
    }
    if let Some(key) = top.iter().find(|key| v.get(key).is_none()) {
        return Err(format!("missing top-level key {key:?}"));
    }
    let entries = v.get("entries").and_then(|e| e.as_arr()).unwrap_or_default();
    if entries.is_empty() {
        return Err("no entries".into());
    }
    match per_entry.iter().find(|key| entries.iter().any(|e| e.get(key).is_none())) {
        Some(key) => Err(format!("key {key:?} missing from some entry")),
        None => Ok(()),
    }
}

/// Print a table header box.
pub fn heading(title: &str) {
    let bar = "=".repeat(title.len() + 4);
    println!("\n{bar}\n| {title} |\n{bar}");
}

/// Print a row of cells with fixed 14-char columns.
pub fn row(cells: &[String]) {
    let line: Vec<String> = cells.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", line.join(" | "));
}

/// Convenience: string cells from &str.
pub fn srow(cells: &[&str]) {
    row(&cells.iter().map(|s| s.to_string()).collect::<Vec<_>>());
}

/// Format a paper-vs-ours comparison cell: `ours (paper, ±x%)`.
pub fn vs(ours: f64, paper: f64) -> String {
    if paper == 0.0 {
        return format!("{ours:.2}");
    }
    let dev = (ours - paper) / paper * 100.0;
    format!("{ours:.1} ({paper:.1}, {dev:+.1}%)")
}

/// Format a number with thousands separators.
pub fn thousands(v: f64) -> String {
    let neg = v < 0.0;
    let v = v.abs().round() as u64;
    let s = v.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    if neg {
        format!("-{out}")
    } else {
        out
    }
}

/// Relative deviation as a percentage string.
pub fn dev_pct(ours: f64, paper: f64) -> String {
    if paper == 0.0 {
        return "n/a".to_string();
    }
    format!("{:+.1}%", (ours - paper) / paper * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thousands_formatting() {
        assert_eq!(thousands(45539.0), "45,539");
        assert_eq!(thousands(872984.0), "872,984");
        assert_eq!(thousands(12.0), "12");
        assert_eq!(thousands(1234567.0), "1,234,567");
    }

    #[test]
    fn deviation_formatting() {
        assert_eq!(dev_pct(110.0, 100.0), "+10.0%");
        assert_eq!(dev_pct(95.0, 100.0), "-5.0%");
        assert_eq!(dev_pct(1.0, 0.0), "n/a");
    }

    #[test]
    fn vs_cell() {
        let s = vs(148.0, 148.5);
        assert!(s.contains("148.0"));
        assert!(s.contains("148.5"));
    }
}
