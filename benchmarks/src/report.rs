//! `bench run`: every workload, end-to-end and traced, each in a fresh
//! process, into one stamped result file. `bench compare`: the parent-vs-
//! change rule of the choosing-metrics guide over such files.

use crate::catalog::{Catalog, MetricSpec};
use crate::layers::gate_violations;
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use texid_distrib::json::{parse, Json};

/// Tag of the result-file layout.
pub const SCHEMA: &str = "texid-bench-result/1";
/// Measured seconds under `--quick`: smoke only, never for claims.
pub const QUICK_SECONDS: f64 = 5.0;
/// Pairs of runs a gain needs before it may be claimed.
const MIN_PAIRS: usize = 10;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Facts about the host and build a result is only comparable within.
fn host_facts() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")?
                    .split(':')
                    .nth(1)
                    .map(|m| m.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj([
        ("cpu_model", Json::Str(cpu)),
        ("nproc", Json::Num(crate::data::threads() as f64)),
        (
            "kernel_backend",
            Json::Str(texid_linalg::active_backend().name().to_string()),
        ),
        (
            "git_sha",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
    ])
}

/// Run one workload in a child process and parse its result line.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: u8,
    out: &Path,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ])
    .args(["--trace", &trace.to_string()])
    .arg("--out")
    .arg(format!("{}.{workload}", out.display()))
    .stdout(Stdio::piped());
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload} --trace {trace}: {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no result line"))?;
    parse(line).map_err(|e| format!("{workload}: result line: {e}"))
}

fn metric_values(run: &Json) -> BTreeMap<String, f64> {
    let Some(Json::Obj(metrics)) = run.get("metrics") else {
        return BTreeMap::new();
    };
    metrics
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect()
}

fn print_metrics(title: &str, specs: &[MetricSpec], values: &BTreeMap<String, f64>) {
    println!("  {title}");
    for m in specs {
        if let Some(v) = values.get(&m.name) {
            println!("    {:<32} {:>16.4} {}", m.name, v, m.unit);
        }
    }
}

/// `bench run`: returns whether every workload was correct and sound.
///
/// # Errors
/// A child that failed to run or a result file that could not be written.
pub fn run_all(catalog: &Catalog, seed: u64, seconds: f64, out: &Path) -> Result<bool, String> {
    let mut all_ok = true;
    let mut workloads = BTreeMap::new();
    for w in &catalog.workloads {
        let plain = child_run(w, seed, seconds, 0, out)?;
        let traced = child_run(w, seed, seconds, 1, out)?;
        let e2e = metric_values(&plain);
        let layers = metric_values(&traced);
        let kind =
            crate::workload::Kind::from_name(w).ok_or_else(|| format!("unknown workload `{w}`"))?;
        let violations = gate_violations(kind, &layers);
        let correct = [&plain, &traced]
            .iter()
            .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
        let failed: f64 = [&plain, &traced]
            .iter()
            .filter_map(|r| r.get("failed")?.as_f64())
            .sum();
        println!("{w}: correct {correct}, failed {failed}");
        print_metrics("end to end (tracing off)", &catalog.end_to_end, &e2e);
        print_metrics("per layer (traced run)", &catalog.per_layer, &layers);
        for v in &violations {
            println!("  UNSOUND: {v}");
        }
        all_ok &= correct && failed == 0.0 && violations.is_empty();
        workloads.insert(
            w.clone(),
            Json::obj([("end_to_end", plain), ("per_layer", traced)]),
        );
    }
    let file = Json::obj([
        ("schema", Json::Str(SCHEMA.to_string())),
        ("host", host_facts()),
        ("seed", Json::Num(seed as f64)),
        ("run_seconds", Json::Num(seconds)),
        (
            "warmup_seconds",
            Json::Num(crate::workload::warmup_s(seconds)),
        ),
        ("workloads", Json::Obj(workloads)),
    ]);
    std::fs::write(out, file.to_string() + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    println!("result file: {}", out.display());
    Ok(all_ok)
}

/// Values of one side: workload → metric → one value per result file.
type Side = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_side(paths: &str) -> Result<Side, String> {
    let mut side = Side::new();
    for path in paths.split(',').filter(|p| !p.is_empty()) {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let v = parse(&text).map_err(|e| format!("{path}: {e}"))?;
        if v.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("{path}: not a {SCHEMA} file"));
        }
        let Some(Json::Obj(workloads)) = v.get("workloads") else {
            return Err(format!("{path}: no `workloads` object"));
        };
        for (w, runs) in workloads {
            for kind in ["end_to_end", "per_layer"] {
                let run = runs
                    .get(kind)
                    .ok_or_else(|| format!("{path}: {w} has no `{kind}` run"))?;
                let values = metric_values(run);
                if values.is_empty() {
                    return Err(format!("{path}: {w}.{kind} has no metrics"));
                }
                for (name, value) in values {
                    side.entry(w.clone())
                        .or_default()
                        .entry(name)
                        .or_default()
                        .push(value);
                }
            }
        }
    }
    Ok(side)
}

/// The verdict on one end-to-end metric of one workload.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The parent's own spread is wider than the bound.
    Unresolved,
}

/// Apply the rule to paired runs (`parent[i]` ran beside `change[i]`).
pub fn verdict(parent: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let pairs = parent.len().min(change.len());
    let better = |c: f64, p: f64| if higher_is_better { c > p } else { c < p };
    let (q1, _, q3) = quartiles(parent);
    let (pm, cm) = (median(parent), median(change));
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(**c, **p))
        .count();
    if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && better(cm, pm) && (cm - pm).abs() > q3 - q1 {
        return Verdict::Improved;
    }
    let every_run_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if (q3 - q1) / pm.abs() > bound && !every_run_better {
        return Verdict::Unresolved;
    }
    let worse_by = if higher_is_better {
        (pm - cm) / pm.abs()
    } else {
        (cm - pm) / pm.abs()
    };
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// `bench compare`: one row per workload × metric.
///
/// # Errors
/// A result file that is missing, malformed or of another schema.
pub fn compare(catalog: &Catalog, parent_paths: &str, change_paths: &str) -> Result<(), String> {
    let parent = load_side(parent_paths)?;
    let change = load_side(change_paths)?;
    println!(
        "{:<22} {:<30} {:>12} {:>12} {:>8} {:>7}  verdict",
        "workload", "metric", "parent med", "change med", "ratio", "IQR/med"
    );
    for w in &catalog.workloads {
        for m in catalog.end_to_end.iter().chain(&catalog.per_layer) {
            let (Some(p), Some(c)) = (
                parent.get(w).and_then(|s| s.get(&m.name)),
                change.get(w).and_then(|s| s.get(&m.name)),
            ) else {
                return Err(format!("{w}.{}: missing from a result file", m.name));
            };
            if p.len() < 2 || c.is_empty() {
                return Err("compare needs at least two parent files and one change file".into());
            }
            let (q1, pm, q3) = quartiles(p);
            let cm = median(c);
            let verdict = match m.bound {
                Some(bound) => {
                    format!("{:?}", verdict(p, c, m.higher_is_better, bound)).to_lowercase()
                }
                None => "-".to_string(),
            };
            // Every ratio with its base: change median over parent median.
            println!(
                "{:<22} {:<30} {:>12.4} {:>12.4} {:>8.3} {:>6.1}%  {verdict}",
                w,
                m.name,
                pm,
                cm,
                if pm != 0.0 { cm / pm } else { f64::NAN },
                if pm != 0.0 {
                    100.0 * (q3 - q1) / pm.abs()
                } else {
                    0.0
                },
            );
        }
    }
    let pairs = parent
        .values()
        .flat_map(|m| m.values())
        .map(Vec::len)
        .min()
        .unwrap_or(0);
    if pairs < MIN_PAIRS {
        println!(
            "note: {pairs} pairs; a gain may be claimed only from {MIN_PAIRS} alternating pairs"
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_follows_the_pairing_rule() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.2).collect();
        // Wins all ten pairs, gap 10 > parent IQR ≈ 1: improved.
        let faster: Vec<f64> = parent.iter().map(|p| p - 10.0).collect();
        assert_eq!(verdict(&parent, &faster, false, 0.1), Verdict::Improved);
        // Same gain from five pairs only: not claimable.
        assert_eq!(
            verdict(&parent[..5], &faster[..5], false, 0.1),
            Verdict::Unchanged
        );
        // 5 % slower under a 10 % bound: unchanged; 20 % slower: regressed.
        let slower: Vec<f64> = parent.iter().map(|p| p * 1.05).collect();
        assert_eq!(verdict(&parent, &slower, false, 0.1), Verdict::Unchanged);
        let much_slower: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        assert_eq!(
            verdict(&parent, &much_slower, false, 0.1),
            Verdict::Regressed
        );
        // Higher-is-better flips the direction.
        assert_eq!(verdict(&parent, &much_slower, true, 0.1), Verdict::Improved);
        // Parent spread (IQR/median ≈ 0.4) wider than the bound: unresolved...
        let noisy: Vec<f64> = (0..10).map(|i| 60.0 + 8.0 * i as f64).collect();
        assert_eq!(verdict(&noisy, &noisy, false, 0.1), Verdict::Unresolved);
        // ...unless every run of the change beats every run of the parent.
        let clear: Vec<f64> = vec![10.0; 5];
        assert_eq!(verdict(&noisy, &clear, false, 0.1), Verdict::Unchanged);
    }
}
