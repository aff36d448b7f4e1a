//! `texid` — command-line front end for the texture identification system.
//!
//! ```text
//! texid gen      --count 12 --size 256 --out textures/     generate sample textures (PGM)
//! texid extract  --image textures/tex_0007.pgm --out q.feat [--max 768]
//! texid search   --refs textures/ --query q.pgm [--top 5]  offline search over a directory
//! texid serve    --port 8080 [--containers 4]              run the REST API
//! texid capacity                                           print the capacity planner table
//! texid trace    --addr HOST:PORT --id TRACE_ID            export a served request to Perfetto
//! texid bench kernels [--quick] [--check] [--backend B]    per-backend kernel GFLOP/s -> BENCH_kernels.json
//! texid bench throughput [--quick] [--check]               serving imgs/s -> BENCH_throughput.json
//! texid bench ivf [--quick] [--check]                      IVF recall/speedup sweep -> BENCH_ivf.json
//! texid store inspect --dir DIR                            scan a durable volume, report damage
//! texid store compact --dir DIR                            replay + snapshot + truncate the WAL
//! texid events tail --addr HOST:PORT [--follow]            tail the flight recorder (JSONL)
//! texid top --addr HOST:PORT                               live console over /metrics + /events
//! texid obs diff --baseline F.json --current F.json        compare two BENCH_*.json runs
//! ```
//!
//! Feature files use the crate's protobuf-style wire format; images are
//! 8-bit binary PGM.

use std::collections::HashMap;
use std::fmt::Display;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;

use texid_core::{Engine, EngineConfig};
use texid_distrib::cluster::{Cluster, ClusterConfig};
use texid_distrib::http::http_call;
use texid_distrib::json::{parse as json_parse, Json};
use texid_distrib::{api, wire};
use texid_image::io::{read_pgm, write_pgm};
use texid_image::TextureGenerator;
use texid_sift::{extract, FeatureMatrix, SiftConfig};

/// Tiny flag parser: `--key value` pairs plus positional subcommand.
struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    fn parse(args: &[String]) -> Args {
        let mut flags = HashMap::new();
        let mut i = 0;
        while i < args.len() {
            if let Some(key) = args[i].strip_prefix("--") {
                if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                    flags.insert(key.to_string(), args[i + 1].clone());
                    i += 2;
                } else {
                    flags.insert(key.to_string(), "true".to_string());
                    i += 1;
                }
            } else {
                i += 1;
            }
        }
        Args { flags }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    fn get_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        self.get_parsed(key, default)
    }

    fn get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        self.get_parsed(key, default)
    }

    /// An absent flag is `default`; a present one must parse.
    fn get_parsed<T: FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: Display,
    {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("invalid value {v:?} for --{key}: {e}")),
        }
    }

    fn has(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing required flag --{key}"))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first().map(String::as_str) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let args = Args::parse(&argv[1..]);
    let result = match cmd {
        "gen" => cmd_gen(&args),
        "extract" => cmd_extract(&args),
        "search" => cmd_search(&args),
        "serve" => cmd_serve(&args),
        "capacity" => cmd_capacity(),
        "trace" => cmd_trace(&args),
        "bench" => cmd_bench(argv.get(1).map(String::as_str), &args),
        "store" => cmd_store(argv.get(1).map(String::as_str), &args),
        "events" => cmd_events(argv.get(1).map(String::as_str), &args),
        "top" => cmd_top(&args),
        "obs" => cmd_obs(argv.get(1).map(String::as_str), &args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("texid: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  texid gen      --count N [--size 256] [--seed S] --out DIR
  texid extract  --image FILE.pgm --out FILE.feat [--max 768]
  texid search   --refs DIR --query FILE.pgm [--top 5] [--max-ref 384] [--max-query 768]
  texid serve    [--port 0] [--containers 4]
  texid capacity
  texid trace    --addr HOST:PORT --id TRACE_ID [--out request.trace.json]
  texid bench kernels [--quick] [--check] [--backend scalar|avx2|avx512] [--out BENCH_kernels.json]
  texid bench throughput [--quick] [--check] [--out BENCH_throughput.json]
  texid bench ivf [--quick] [--check] [--out BENCH_ivf.json]
  texid store inspect --dir DIR
  texid store compact --dir DIR
  texid events tail --addr HOST:PORT [--follow] [--limit 20] [--interval-ms 1000] [--max-polls N]
  texid top      --addr HOST:PORT [--interval-ms 2000] [--iterations N] [--no-clear]
  texid obs diff --baseline FILE.json --current FILE.json [--threshold 1.5] [--check]";

fn cmd_gen(args: &Args) -> Result<(), String> {
    let count = args.get_usize("count", 12)?;
    let size = args.get_usize("size", 256)?;
    let seed = args.get_usize("seed", 0x7ea)? as u64;
    let out = PathBuf::from(args.require("out")?);
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let generator = TextureGenerator { dataset_seed: seed, ..TextureGenerator::with_size(size) };
    for id in 0..count as u64 {
        let path = out.join(format!("tex_{id:04}.pgm"));
        write_pgm(&generator.generate(id), &path).map_err(|e| e.to_string())?;
    }
    println!("wrote {count} textures ({size}x{size}) to {}", out.display());
    Ok(())
}

fn load_features(image_path: &Path, max_features: usize) -> Result<FeatureMatrix, String> {
    let im = read_pgm(image_path).map_err(|e| format!("{}: {e}", image_path.display()))?;
    Ok(extract(&im, &SiftConfig { max_features, ..SiftConfig::default() }))
}

fn cmd_extract(args: &Args) -> Result<(), String> {
    let image = PathBuf::from(args.require("image")?);
    let out = PathBuf::from(args.require("out")?);
    let max = args.get_usize("max", 768)?;
    let features = load_features(&image, max)?;
    std::fs::write(&out, wire::encode_features(&features)).map_err(|e| e.to_string())?;
    println!(
        "{}: {} features (d={}), {} bytes -> {}",
        image.display(),
        features.len(),
        features.dim(),
        std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0),
        out.display()
    );
    Ok(())
}

fn cmd_search(args: &Args) -> Result<(), String> {
    let refs_dir = PathBuf::from(args.require("refs")?);
    let query_path = PathBuf::from(args.require("query")?);
    let top = args.get_usize("top", 5)?;
    let max_ref = args.get_usize("max-ref", 384)?;
    let max_query = args.get_usize("max-query", 768)?;

    let mut engine = Engine::new(EngineConfig {
        m_ref: max_ref,
        n_query: max_query,
        batch_size: 32,
        ..EngineConfig::default()
    });

    let mut entries: Vec<PathBuf> = std::fs::read_dir(&refs_dir)
        .map_err(|e| format!("{}: {e}", refs_dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "pgm"))
        .collect();
    entries.sort();
    if entries.is_empty() {
        return Err(format!("no .pgm files in {}", refs_dir.display()));
    }
    println!("indexing {} references from {} ...", entries.len(), refs_dir.display());
    let mut names: Vec<String> = Vec::new();
    for (id, path) in entries.iter().enumerate() {
        let features = load_features(path, max_ref)?;
        engine.add_reference(id as u64, &features).map_err(|e| e.to_string())?;
        names.push(path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default());
    }
    engine.flush().map_err(|e| e.to_string())?;

    let query = load_features(&query_path, max_query)?;
    let result = engine.search(&query);
    println!("\nresults for {} ({} features):", query_path.display(), query.len());
    for (id, score) in result.ranked.iter().take(top) {
        println!("  {:<24} score {score}", names[*id as usize]);
    }
    match result.best(10) {
        Some((id, score)) => println!("\nIDENTIFIED: {} ({score} matches)", names[id as usize]),
        None => println!("\nno confident match (threshold 10)"),
    }
    println!(
        "simulated {} comparisons/s on a {}",
        result.report.images_per_second().round(),
        engine.config().device.name
    );
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let port = args.get_usize("port", 0)?;
    let containers = args.get_usize("containers", 4)?;
    let cluster = Arc::new(Cluster::new(ClusterConfig {
        containers,
        engine: EngineConfig::default(),
        ..ClusterConfig::default()
    }));
    let server =
        api::serve(cluster, &format!("127.0.0.1:{port}")).map_err(|e| e.to_string())?;
    println!(
        "texture search API on http://{} ({} containers)\nroutes: POST /textures, GET/PUT/DELETE /textures/{{id}}, POST /search, POST /verify, GET /stats, GET /health, POST /heal, GET /metrics, GET /events, GET /slo, GET /traces, GET /trace/{{id}}\nCtrl-C to stop",
        server.addr(),
        containers
    );
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn cmd_capacity() -> Result<(), String> {
    use texid_core::capacity::{bytes_per_reference, device_capacity, hybrid_capacity};
    use texid_gpu::{DeviceSpec, Precision};
    let spec = DeviceSpec::tesla_p100();
    println!("{:<46} {:>12} {:>10}", "configuration (single P100 + 64 GB host)", "capacity", "KB/ref");
    let rows: [(&str, u64, u64); 4] = [
        (
            "FP32, m=768, GPU only (baseline)",
            device_capacity(&spec, 0, bytes_per_reference(768, 128, Precision::F32, true)),
            bytes_per_reference(768, 128, Precision::F32, true),
        ),
        (
            "FP16, m=768, GPU only",
            device_capacity(&spec, 0, bytes_per_reference(768, 128, Precision::F16, false)),
            bytes_per_reference(768, 128, Precision::F16, false),
        ),
        (
            "FP16, m=768, hybrid cache",
            hybrid_capacity(&spec, 0, 64 << 30, bytes_per_reference(768, 128, Precision::F16, false)),
            bytes_per_reference(768, 128, Precision::F16, false),
        ),
        (
            "FP16, m=384, hybrid cache (paper optimum)",
            hybrid_capacity(&spec, 0, 64 << 30, bytes_per_reference(384, 128, Precision::F16, false)),
            bytes_per_reference(384, 128, Precision::F16, false),
        ),
    ];
    for (label, cap, per_ref) in rows {
        println!("{label:<46} {cap:>12} {:>10.1}", per_ref as f64 / 1024.0);
    }
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    let addr = parse_addr(args.require("addr")?)?;
    let id = args.require("id")?;
    let out = PathBuf::from(args.get("out").unwrap_or("request.trace.json"));
    let path = format!("/trace/{id}");
    let resp = http_call(addr, "GET", &path, b"").map_err(|e| format!("GET {path}: {e}"))?;
    let text = resp.text();
    if resp.status != 200 {
        return Err(format!("GET {path}: HTTP {}: {}", resp.status, text.trim()));
    }
    let spans = json_parse(&text)
        .map_err(|e| e.to_string())
        .and_then(|body| api::trace_spans(&body))
        .map_err(|e| format!("GET {path}: {e}"))?;
    let mut trace = texid_obs::ChromeTrace::new();
    trace.add_spans(&spans);
    std::fs::write(&out, trace.to_json()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "wrote {} spans of trace {id} to {} — open it at https://ui.perfetto.dev or chrome://tracing",
        spans.len(),
        out.display()
    );
    Ok(())
}

fn cmd_bench(target: Option<&str>, args: &Args) -> Result<(), String> {
    match target {
        Some("kernels") => {}
        Some("throughput") => return cmd_bench_throughput(args),
        Some("ivf") => return cmd_bench_ivf(args),
        other => {
            return Err(format!(
                "unknown bench target {other:?} — 'kernels', 'throughput' and 'ivf' are \
                 available\n{USAGE}"
            ))
        }
    }
    let quick = args.has("quick");
    let out = PathBuf::from(args.get("out").unwrap_or("BENCH_kernels.json"));
    let backends = match args.get("backend") {
        Some(name) => {
            let be = texid_linalg::Backend::parse(name)
                .ok_or_else(|| format!("unknown backend {name:?} — 'scalar', 'avx2' or 'avx512'"))?;
            if !be.is_available() {
                return Err(format!("backend '{}' is not available on this CPU", be.name()));
            }
            vec![be]
        }
        None => texid_linalg::available_backends(),
    };

    println!(
        "running kernel benchmarks ({} mode, backends: {}) — packed/naive GEMM and \
         fused/unfused top-2…",
        if quick { "quick" } else { "full" },
        backends.iter().map(|b| b.name()).collect::<Vec<_>>().join(",")
    );
    let report = texid_bench::kernels::run_on(quick, &backends);
    let json = report.to_json();
    texid_bench::kernels::validate_json(&json)?;
    std::fs::write(&out, &json).map_err(|e| format!("{}: {e}", out.display()))?;

    for e in &report.entries {
        println!(
            "  {:<12} {:<4} {:<6} m={:<4} B={:<3} {:>10.1} us (min {:>10.1}, MAD {:>7.1}) \
             {:>8.3} GFLOP/s {:>5.1}% of peak",
            e.kernel, e.precision, e.backend, e.m, e.batch, e.wall_us, e.min_us, e.mad_us,
            e.gflops, e.pct_of_peak
        );
    }
    println!("wrote {} entries to {}", report.entries.len(), out.display());

    if args.has("check") {
        texid_bench::kernels::check_simd_guard(&report, 1.0)?;
        texid_bench::kernels::check_epilogue_guard(&report, 0.85)?;
        println!(
            "check passed: every SIMD row >= 1.0x its scalar twin, every SIMD fused_top2 >= \
             1.0x the next backend's and >= 0.85x packed at every cell"
        );
    }
    Ok(())
}

fn cmd_store(action: Option<&str>, args: &Args) -> Result<(), String> {
    use texid_store::{DurableLog, LogConfig, SnapshotFault, Volume};
    let action = match action {
        Some(a @ ("inspect" | "compact")) => a,
        other => {
            return Err(format!(
                "unknown store action {other:?} — 'inspect' and 'compact' are available\n{USAGE}"
            ))
        }
    };
    let dir = PathBuf::from(args.require("dir")?);
    let volume = Volume::in_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let log = DurableLog::new(volume, LogConfig::default());
    let (map, replay) = log.replay().map_err(|e| format!("replay: {e}"))?;

    println!("volume {}", dir.display());
    match &replay.snapshot_error {
        Some(err) => println!("  snapshot: UNREADABLE ({err}) — recovered from WAL alone"),
        None => println!("  snapshot: {} entries", replay.snapshot_entries),
    }
    println!(
        "  wal: {} records applied over {} bytes ({} corrupt skipped, {} torn tail bytes)",
        replay.wal_records_applied,
        replay.wal_bytes_scanned,
        replay.wal_corrupt_skipped,
        replay.wal_torn_tail_bytes
    );
    let value_bytes: usize = map.values().map(Vec::len).sum();
    println!("  recovered state: {} keys, {} value bytes", map.len(), value_bytes);
    if replay.damaged() {
        println!("  DAMAGE DETECTED — records above were quarantined, not silently replayed");
    }

    if action == "compact" {
        log.write_snapshot(&map, SnapshotFault::Clean).map_err(|e| format!("compact: {e}"))?;
        let stats = log.stats();
        println!(
            "compacted: snapshot {} bytes, wal truncated to {} bytes",
            stats.snapshot_bytes, stats.wal_bytes
        );
    }
    Ok(())
}

fn cmd_bench_throughput(args: &Args) -> Result<(), String> {
    let quick = args.has("quick");
    let out = PathBuf::from(args.get("out").unwrap_or("BENCH_throughput.json"));

    println!(
        "running serving throughput benchmark ({} mode) — client waves x query coalescing on a \
         cramped (host-resident) shard…",
        if quick { "quick" } else { "full" }
    );
    let report = texid_bench::throughput::run(quick);
    let json = report.to_json();
    texid_bench::throughput::validate_json(&json)?;
    std::fs::write(&out, &json).map_err(|e| format!("{}: {e}", out.display()))?;

    for e in &report.entries {
        println!(
            "  clients={:<3} coalesce={:<5} {:>12.1} imgs/s (sim)  group={:<5.1} h2d={:>12.1} us",
            e.clients, e.coalesce, e.imgs_per_sec, e.mean_group, e.h2d_us
        );
    }
    let max_clients = report.entries.iter().map(|e| e.clients).max().unwrap_or(1);
    if let Some(speedup) = report.coalesce_speedup(max_clients) {
        println!("coalescing speedup at {max_clients} clients: {speedup:.2}x");
    }
    if let Some(scaling) = report.scaling_vs_one(max_clients) {
        println!("throughput at {max_clients} clients vs 1 client: {scaling:.2}x");
    }
    println!("wrote {} cells to {}", report.entries.len(), out.display());

    if args.has("check") {
        texid_bench::throughput::check_guard(&report, 1.0)?;
        println!("check passed: coalesced >= 1.0x uncoalesced imgs/s at {max_clients} clients");
    }
    Ok(())
}

fn cmd_bench_ivf(args: &Args) -> Result<(), String> {
    let quick = args.has("quick");
    let out = PathBuf::from(args.get("out").unwrap_or("BENCH_ivf.json"));

    println!(
        "running IVF benchmark ({} mode) — (nlist, nprobe) sweep: recall@1 vs effective imgs/s \
         over the exhaustive sweep…",
        if quick { "quick" } else { "full" }
    );
    let report = texid_bench::ivf::run(quick);
    let json = report.to_json();
    texid_bench::ivf::validate_json(&json)?;
    std::fs::write(&out, &json).map_err(|e| format!("{}: {e}", out.display()))?;

    println!("  exhaustive baseline: {:>10.1} imgs/s (sim)", report.exhaustive_imgs_per_sec);
    for e in &report.entries {
        println!(
            "  nlist={:<3} nprobe={:<3} {:>10.1} imgs/s (sim)  recall@1={:<6.4} speedup={:<5.2}x \
             pruned={}",
            e.nlist, e.nprobe, e.imgs_per_sec, e.recall_at_1, e.speedup, e.batches_pruned
        );
    }
    println!("wrote {} cells to {}", report.entries.len(), out.display());

    if args.has("check") {
        texid_bench::ivf::check_guard(&report, 0.95, 2.0)?;
        println!(
            "check passed: recall@1 >= 0.95 and >= 2.0x exhaustive imgs/s at the default \
             (nlist={}, nprobe={}) cell",
            report.default_nlist, report.default_nprobe
        );
    }
    Ok(())
}

fn parse_addr(s: &str) -> Result<SocketAddr, String> {
    s.to_socket_addrs()
        .map_err(|e| format!("--addr {s}: {e}"))?
        .next()
        .ok_or_else(|| format!("--addr {s}: resolved to no addresses"))
}

fn cmd_events(action: Option<&str>, args: &Args) -> Result<(), String> {
    match action {
        Some("tail") => {}
        other => {
            return Err(format!("unknown events action {other:?} — 'tail' is available\n{USAGE}"))
        }
    }
    let addr = parse_addr(args.require("addr")?)?;
    let follow = args.has("follow");
    let limit = args.get_usize("limit", 20)?;
    let interval = std::time::Duration::from_millis(args.get_usize("interval-ms", 1000)? as u64);
    let max_polls = args.get_usize("max-polls", usize::MAX)?;

    // The flight recorder is a bounded ring, so tailing is client-side:
    // each poll refetches the whole window and prints only records whose
    // `seq` is new. Gaps in `seq` mean the ring lapped us (drops).
    let mut next_seq: u64 = 0;
    let mut first_poll = true;
    for poll in 0.. {
        if poll >= max_polls {
            break;
        }
        let resp =
            http_call(addr, "GET", "/events", b"").map_err(|e| format!("GET /events: {e}"))?;
        if resp.status != 200 {
            return Err(format!("GET /events: HTTP {}", resp.status));
        }
        let text = resp.text();
        let mut fresh: Vec<(u64, &str)> = Vec::new();
        for line in text.lines().filter(|l| !l.is_empty()) {
            let v = json_parse(line).map_err(|e| format!("bad event line: {e}"))?;
            let seq = v
                .get("seq")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("event without seq: {line}"))?;
            if seq >= next_seq {
                fresh.push((seq, line));
            }
        }
        fresh.sort_by_key(|(seq, _)| *seq);
        // On the first poll show at most the last --limit records; after
        // that everything new is printed.
        let skip = if first_poll { fresh.len().saturating_sub(limit) } else { 0 };
        for (seq, line) in fresh.iter().skip(skip) {
            if !first_poll && *seq > next_seq {
                eprintln!("... {} record(s) dropped by the ring ...", seq - next_seq);
            }
            println!("{line}");
            next_seq = seq + 1;
        }
        if let Some((last, _)) = fresh.last() {
            next_seq = last + 1;
        }
        first_poll = false;
        if !follow {
            break;
        }
        std::thread::sleep(interval);
    }
    Ok(())
}

/// One scraped sample: family name, label pairs, value.
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// Minimal Prometheus text-format parser: comments and exemplar
/// annotations (everything after ` # `) are ignored.
fn parse_prom(text: &str) -> Vec<Sample> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (ident, rest) = match line.find('{') {
            Some(open) => {
                let Some(close_rel) = line[open..].find('}') else { continue };
                (&line[..open + close_rel + 1], &line[open + close_rel + 1..])
            }
            None => match line.find(' ') {
                Some(sp) => (&line[..sp], &line[sp..]),
                None => continue,
            },
        };
        let Some(value) = rest.split_whitespace().next().and_then(|v| v.parse::<f64>().ok())
        else {
            continue;
        };
        let (name, labels) = match ident.split_once('{') {
            Some((name, raw)) => {
                let raw = raw.trim_end_matches('}');
                let mut labels = Vec::new();
                for pair in raw.split(',').filter(|p| !p.is_empty()) {
                    if let Some((k, v)) = pair.split_once('=') {
                        labels.push((k.to_string(), v.trim_matches('"').to_string()));
                    }
                }
                (name.to_string(), labels)
            }
            None => (ident.to_string(), Vec::new()),
        };
        out.push(Sample { name, labels, value });
    }
    out
}

fn sample_value(samples: &[Sample], name: &str, want: &[(&str, &str)]) -> Option<f64> {
    samples
        .iter()
        .find(|s| {
            s.name == name
                && want.iter().all(|(k, v)| {
                    s.labels.iter().any(|(lk, lv)| lk == k && lv == v)
                })
        })
        .map(|s| s.value)
}

/// All `(label value, sample value)` pairs of one family, sorted by label.
fn sample_by_label(samples: &[Sample], name: &str, label: &str) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = samples
        .iter()
        .filter(|s| s.name == name)
        .filter_map(|s| {
            s.labels.iter().find(|(k, _)| k == label).map(|(_, v)| (v.clone(), s.value))
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

fn cmd_top(args: &Args) -> Result<(), String> {
    let addr = parse_addr(args.require("addr")?)?;
    let interval = std::time::Duration::from_millis(args.get_usize("interval-ms", 2000)? as u64);
    let iterations = args.get_usize("iterations", usize::MAX)?;
    let clear = !args.has("no-clear");

    for i in 0.. {
        if i >= iterations {
            break;
        }
        if i > 0 {
            std::thread::sleep(interval);
        }
        let resp =
            http_call(addr, "GET", "/metrics", b"").map_err(|e| format!("GET /metrics: {e}"))?;
        if resp.status != 200 {
            return Err(format!("GET /metrics: HTTP {}", resp.status));
        }
        let s = parse_prom(&resp.text());
        let events = http_call(addr, "GET", "/events", b"")
            .map_err(|e| format!("GET /events: {e}"))?
            .text();

        if clear {
            print!("\x1b[2J\x1b[H");
        }
        let uptime = sample_value(&s, "texid_uptime_seconds", &[]).unwrap_or(0.0);
        println!("texid top — {addr} — up {uptime:.0}s — poll {}", i + 1);

        let searches = sample_value(&s, "texid_cluster_searches_total", &[]).unwrap_or(0.0);
        let degraded =
            sample_value(&s, "texid_cluster_degraded_searches_total", &[]).unwrap_or(0.0);
        let retries = sample_value(&s, "texid_cluster_retries_total", &[]).unwrap_or(0.0);
        let queue = sample_value(&s, "texid_search_queue_depth", &[]).unwrap_or(0.0);
        println!(
            "searches {searches:.0} ({degraded:.0} degraded, {retries:.0} retries) | queue depth {queue:.0}"
        );

        let dev = sample_value(&s, "texid_cache_hits_total", &[("tier", "device")]).unwrap_or(0.0);
        let host = sample_value(&s, "texid_cache_hits_total", &[("tier", "host")]).unwrap_or(0.0);
        let evict = sample_value(&s, "texid_cache_evictions_total", &[]).unwrap_or(0.0);
        println!("cache hits: device {dev:.0} / host {host:.0} | evictions {evict:.0}");

        let breakers = sample_by_label(&s, "texid_shard_breaker_state", "shard");
        if !breakers.is_empty() {
            let states: Vec<String> = breakers
                .iter()
                .map(|(shard, v)| {
                    let label = match *v as i64 {
                        0 => "ok",
                        1 => "SUSPECT",
                        _ => "DOWN",
                    };
                    format!("{shard}:{label}")
                })
                .collect();
            println!("shards: {}", states.join("  "));
        }

        println!("slo:");
        for (slo, budget) in sample_by_label(&s, "texid_slo_budget_remaining", "slo") {
            let short =
                sample_value(&s, "texid_slo_burn_rate", &[("slo", &slo), ("window", "short")])
                    .unwrap_or(0.0);
            let long =
                sample_value(&s, "texid_slo_burn_rate", &[("slo", &slo), ("window", "long")])
                    .unwrap_or(0.0);
            let alarm = if short > texid_obs::FAST_BURN_THRESHOLD
                && long > texid_obs::FAST_BURN_THRESHOLD
            {
                "  << FAST BURN"
            } else {
                ""
            };
            println!(
                "  {slo:<24} burn {short:>6.2} (short) {long:>6.2} (long)  budget {:>5.1}%{alarm}",
                budget * 100.0
            );
        }

        let drift = sample_by_label(&s, "texid_model_drift_ratio", "stage");
        if !drift.is_empty() {
            let cells: Vec<String> =
                drift.iter().map(|(stage, r)| format!("{stage} {r:.2}")).collect();
            println!("model drift (measured/Eq.3-4 predicted): {}", cells.join("  "));
        }

        let tail: Vec<&str> = events.lines().filter(|l| !l.is_empty()).collect();
        println!("recent events ({} in ring):", tail.len());
        for line in tail.iter().rev().take(3).rev() {
            if let Ok(v) = json_parse(line) {
                println!(
                    "  seq={} outcome={} sim={:.0}us wall={:.0}us shards {}/{}/{} coalesced={}",
                    v.get("seq").and_then(Json::as_u64).unwrap_or(0),
                    v.get("outcome").and_then(Json::as_str).unwrap_or("?"),
                    v.get("sim_wall_us").and_then(Json::as_f64).unwrap_or(0.0),
                    v.get("wall_elapsed_us").and_then(Json::as_f64).unwrap_or(0.0),
                    v.get("shards_ok").and_then(Json::as_u64).unwrap_or(0),
                    v.get("shards_failed").and_then(Json::as_u64).unwrap_or(0),
                    v.get("shards_skipped").and_then(Json::as_u64).unwrap_or(0),
                    v.get("coalesced").and_then(Json::as_u64).unwrap_or(1),
                );
            }
        }
    }
    Ok(())
}

fn cmd_obs(action: Option<&str>, args: &Args) -> Result<(), String> {
    match action {
        Some("diff") => {}
        other => return Err(format!("unknown obs action {other:?} — 'diff' is available\n{USAGE}")),
    }
    let baseline_path = PathBuf::from(args.require("baseline")?);
    let current_path = PathBuf::from(args.require("current")?);
    let threshold = args.get_f64("threshold", 1.5)?;
    if threshold <= 1.0 {
        return Err("--threshold must be > 1.0".to_string());
    }

    let read = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        json_parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let baseline = read(&baseline_path)?;
    let current = read(&current_path)?;

    let schema = baseline
        .get("schema")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{}: no schema field", baseline_path.display()))?
        .to_string();
    if current.get("schema").and_then(Json::as_str) != Some(&schema) {
        return Err("baseline and current have different schemas".to_string());
    }
    // Each schema names the metric where higher is better and the fields
    // that identify a comparable cell across the two runs.
    let (metric, keys): (&str, &[&str]) = match schema.as_str() {
        texid_bench::kernels::SCHEMA => {
            ("gflops", &["kernel", "precision", "backend", "m", "batch"])
        }
        texid_bench::throughput::SCHEMA => ("imgs_per_sec", &["clients", "coalesce"]),
        texid_bench::ivf::SCHEMA => ("imgs_per_sec", &["nlist", "nprobe"]),
        other => return Err(format!("unknown bench schema {other:?}")),
    };

    let cell_key = |e: &Json| -> String {
        keys.iter().map(|k| format!("{k}={} ", e.get(k).map(Json::to_string).unwrap_or_default()))
            .collect::<String>()
            .trim_end()
            .to_string()
    };
    let entries = |v: &Json| -> Vec<(String, f64)> {
        v.get("entries")
            .and_then(Json::as_arr)
            .map(|arr| {
                arr.iter()
                    .filter_map(|e| {
                        e.get(metric).and_then(Json::as_f64).map(|m| (cell_key(e), m))
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let base_entries = entries(&baseline);
    let cur_entries: HashMap<String, f64> = entries(&current).into_iter().collect();

    println!("{schema}: {metric} ratio current/baseline (drift beyond {threshold}x flagged)");
    let mut drifted = 0usize;
    let mut compared = 0usize;
    for (key, base) in &base_entries {
        let Some(cur) = cur_entries.get(key) else {
            println!("  {key:<52} MISSING from current run");
            drifted += 1;
            continue;
        };
        if *base <= 0.0 {
            continue;
        }
        compared += 1;
        let ratio = cur / base;
        let flag = if ratio > threshold || ratio < 1.0 / threshold { "  << DRIFT" } else { "" };
        if !flag.is_empty() {
            drifted += 1;
        }
        println!("  {key:<52} {base:>12.1} -> {cur:>12.1}  ({ratio:>5.2}x){flag}");
    }
    println!("{compared} cells compared, {drifted} drifted");
    if args.has("check") && drifted > 0 {
        return Err(format!("{drifted} cell(s) drifted beyond {threshold}x"));
    }
    Ok(())
}
