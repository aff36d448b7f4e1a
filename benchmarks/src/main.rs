//! `bench`: the wall-clock, socket-to-socket benchmark of the texid REST
//! service. See `benchmarks/README.md`.

mod catalog;
mod data;
mod layers;
mod load;
mod report;
mod stats;
mod trace;
mod workload;

use catalog::Catalog;
use std::collections::BTreeMap;
use std::process::ExitCode;
use texid_distrib::json::Json;
use workload::Kind;

/// `--key value` pairs after the optional subcommand.
fn flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{key}`"))?;
        let value = it.next().ok_or_else(|| format!("`{key}` needs a value"))?;
        out.insert(name.to_string(), value.clone());
    }
    Ok(out)
}

fn parsed<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    key: &str,
) -> Result<Option<T>, String> {
    flags
        .get(key)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("bad value `{v}` for --{key}"))
        })
        .transpose()
}

/// One workload, one process: the contract of `BENCHMARK.json`'s `command`.
fn run_one(catalog: &Catalog, flags: &BTreeMap<String, String>) -> Result<(), String> {
    let name = flags.get("workload").ok_or("--workload is required")?;
    let kind = Kind::from_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed: u64 = parsed(flags, "seed")?.ok_or("--seed is required")?;
    let seconds: f64 = parsed(flags, "seconds")?.unwrap_or(catalog.run_seconds);
    let trace: u8 = parsed(flags, "trace")?.unwrap_or(0);
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }

    let dataset = data::dataset(&data::CorpusParams::default(), seed);
    eprintln!(
        "bench: datagen_s {:.3} (not a metric, outside setup_s)",
        dataset.datagen_s
    );
    let (outcome, wanted) = match trace {
        0 => (
            workload::run_untraced(kind, &dataset, seconds, seed)?,
            &catalog.end_to_end,
        ),
        1 => {
            let trace_out = flags
                .get("out")
                .map(|p| std::path::PathBuf::from(format!("{p}.trace.json")));
            (
                layers::run_traced(kind, &dataset, seconds, seed, trace_out.as_deref())?,
                &catalog.per_layer,
            )
        }
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    for note in &outcome.notes {
        eprintln!("bench: {note}");
    }
    let line = Json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", outcome.metrics.to_json(wanted)?),
    ]);
    println!("{}", line.to_string());
    Ok(())
}

const USAGE: &str = "usage:
  bench --workload NAME --seed N [--seconds S] [--trace 0|1] [--out PREFIX]   one workload, one result line
  bench run --seed N --out FILE [--seconds S | --quick 1]                     every workload, both runs, one result file
  bench compare --parent A1.json,A2.json,... --change B1.json,B2.json,...     verdict per workload x metric";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let catalog = Catalog::load();
    let result = match args.first().map(String::as_str) {
        Some("run") => flags(&args[1..]).and_then(|f| {
            let seed: u64 = parsed(&f, "seed")?.ok_or("--seed is required")?;
            let out = f.get("out").ok_or("--out is required")?;
            let seconds = match parsed::<u8>(&f, "quick")? {
                Some(1) => report::QUICK_SECONDS,
                _ => parsed(&f, "seconds")?.unwrap_or(catalog.run_seconds),
            };
            report::run_all(&catalog, seed, seconds, std::path::Path::new(out))
        }),
        Some("compare") => flags(&args[1..]).and_then(|f| {
            let side = |k: &str| f.get(k).ok_or(format!("--{k} is required"));
            report::compare(&catalog, side("parent")?, side("change")?).map(|()| true)
        }),
        Some(flag) if flag.starts_with("--") => {
            flags(&args).and_then(|f| run_one(&catalog, &f).map(|()| true))
        }
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!(
                "bench: a workload was incorrect, failed requests, or broke a soundness gate"
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::FAILURE
        }
    }
}
