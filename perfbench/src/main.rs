//! End-to-end and per-layer benchmark of the XML update pipeline.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <bigdoc_structural|bigdoc_text|fleet|label_skew> \
//!     --seed <n> --seconds <s> --trace <0|1> [--size tiny]
//! ```
//!
//! The workload inputs are generated from `--seed`; the library sees
//! only those generated inputs. With `--trace 0` the run is untraced
//! and reports the end-to-end metrics. With `--trace 1` it runs the
//! workload untraced for half the budget, then replays the same rounds
//! through the traced path — every call into a layer wrapped in a span
//! — checks that both passes end in the same state, and reports the
//! per-layer metrics plus the tracing overhead. The last line of
//! standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the line before it is the full
//! report (provenance, tail percentiles, node counts, checks), which is
//! also written, with the spans, under `<target dir>/perfbench-out/`.

mod doc;
mod docwork;
mod fleet;
mod json;
mod mirror;
mod phase;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use doc::LabelSize;
use docwork::{BigDoc, LabelSkew, SKEW_SCHEMES};
use fleet::Fleet;
use json::Json;
use phase::{Phase, Stop};
use stats::{mean, median, tail, Tail};

xupd_testkit::install_counting_allocator!();

/// Workload sizes. `tiny` is the smoke-test size.
pub struct Size {
    pub tiny: bool,
    pub bigdoc_scale: usize,
    pub structural_steps: usize,
    pub text_steps: usize,
    pub skew_scale: usize,
    pub skew_batches: usize,
    pub fleet_visits: usize,
}

impl Size {
    fn full() -> Size {
        Size {
            tiny: false,
            bigdoc_scale: 6250,
            structural_steps: 12,
            text_steps: 48,
            skew_scale: 125,
            skew_batches: 63,
            fleet_visits: 6,
        }
    }

    fn tiny() -> Size {
        Size {
            tiny: true,
            bigdoc_scale: 60,
            structural_steps: 3,
            text_steps: 4,
            skew_scale: 20,
            skew_batches: 6,
            fleet_visits: 2,
        }
    }
}

const WORKLOADS: [&str; 4] = ["bigdoc_structural", "bigdoc_text", "fleet", "label_skew"];

/// The fixed tail percentiles per workload: (update, query). Fixed so
/// two commits compare the same quantile, and each leaves far more than
/// ten samples beyond it at the full size. They stop short of p99: on a
/// shared two-CPU host, stalls of a few milliseconds hit about one
/// operation in a hundred and would set a p99 on their own.
fn tail_percentiles(workload: &str) -> (f64, f64) {
    match workload {
        "bigdoc_structural" => (90.0, 95.0),
        _ => (95.0, 95.0),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut size = Size::full();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--size" => {
                size = match value()?.as_str() {
                    "full" => Size::full(),
                    "tiny" => Size::tiny(),
                    other => return Err(format!("--size takes full or tiny, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        size,
    })
}

enum Work {
    Big(BigDoc),
    Skew(LabelSkew),
    Fleet(Fleet),
}

impl Work {
    fn generate(args: &Args) -> Result<Work, String> {
        Ok(match args.workload.as_str() {
            "bigdoc_structural" => Work::Big(BigDoc::structural(args.seed, &args.size)),
            "bigdoc_text" => Work::Big(BigDoc::text(args.seed, &args.size)),
            "label_skew" => Work::Skew(LabelSkew::new(args.seed, &args.size)),
            _ => Work::Fleet(Fleet::new(args.seed, &args.size)?),
        })
    }

    fn run(&self, stop: Stop, traced: bool) -> Phase {
        match self {
            Work::Big(w) => w.run(stop, traced),
            Work::Skew(w) => w.run(stop, traced),
            // The fleet makes the same store calls either way; only the
            // spans around them differ.
            Work::Fleet(w) => w.run(stop),
        }
    }
}

/// A metrics object in output order.
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(n, v, u)| {
                    (
                        n.to_string(),
                        Json::obj().with("value", *v).with("unit", *u),
                    )
                })
                .collect(),
        )
    }
}

/// Process high-water resident memory, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn end_to_end(ph: &Phase, workload: &str, tails: &mut Json) -> Metrics {
    let (tu, tq) = tail_percentiles(workload);
    let update_tail = tail(&ph.update_ms, tu);
    let query_tail = tail(&ph.query_us, tq);
    tails.set("update_tail_ms", update_tail.to_json());
    tails.set("query_tail_us", query_tail.to_json());
    let mut m = Metrics(Vec::new());
    m.put("setup_s", median(&ph.setup_s), "s");
    m.put("update_p50_ms", median(&ph.update_ms), "ms");
    m.put("update_tail_ms", update_tail.value, "ms");
    m.put("query_p50_us", median(&ph.query_us), "us");
    m.put("query_tail_us", query_tail.value, "us");
    m.put("xpath_p50_ms", median(&ph.xpath_ms), "ms");
    m.put(
        "ops_per_s",
        ph.timed_ok as f64 / (ph.timed_ns.max(1) as f64 / 1e9),
        "1/s",
    );
    let rounds = &ph.round_labels;
    m.put(
        "label_bits_mean",
        median(&rounds.iter().map(LabelSize::mean).collect::<Vec<_>>()),
        "bits",
    );
    m.put(
        "label_bits_max",
        median(&rounds.iter().map(|l| l.max_bits as f64).collect::<Vec<_>>()),
        "bits",
    );
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    m
}

/// Sample count and a few quantiles, for the report.
fn distribution(xs: &[f64]) -> Json {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mut o = Json::obj().with("n", v.len());
    for p in [10.0, 25.0, 50.0, 75.0, 90.0, 99.0] {
        o.set(&format!("p{p}"), stats::percentile(&v, p));
    }
    o
}

fn median_of(spans: &BTreeMap<String, Vec<f64>>, key: &str) -> f64 {
    spans.get(key).map_or(0.0, |v| median(v))
}

/// Per-layer metrics read straight off the spans: the median self time
/// of every span with that name (0 where the workload never calls it).
const SPAN_METRICS: [(&str, &str); 9] = [
    ("flux.parse_us", "flux.parse"),
    ("flux.check_us", "flux.check"),
    ("flux.lower_us", "flux.lower"),
    ("mutations.batch_of_us", "mutations.batch_of"),
    ("analysis.analyze_us", "analysis.analyze"),
    ("apply.us", "apply"),
    ("querycache.absorb_us", "querycache.absorb"),
    ("encoding.snapshot_encode_us", "encoding.snapshot_encode"),
    ("encoding.xpath_eval_us", "encoding.xpath_eval"),
];

fn per_layer(traced: &Phase, untraced: &Phase, workload: &str, tails: &mut Json) -> Metrics {
    let spans = trace::self_us_by_name();
    let b = &traced.batches;
    let mut m = Metrics(Vec::new());
    for (name, span) in SPAN_METRICS {
        m.put(name, median_of(&spans, span), "us");
    }
    let analyzed: Vec<_> = b.iter().filter(|c| c.effective.is_some()).collect();
    let submitted: u64 = analyzed.iter().map(|c| c.submitted).sum();
    let effective: u64 = analyzed.iter().filter_map(|c| c.effective).sum();
    m.put(
        "analysis.effective_ratio",
        if submitted == 0 {
            0.0
        } else {
            effective as f64 / submitted as f64
        },
        "ratio",
    );
    let applied: Vec<_> = b.iter().filter(|c| c.allocs > 0).collect();
    m.put(
        "apply.allocs",
        median(&applied.iter().map(|c| c.allocs as f64).collect::<Vec<_>>()),
        "count/batch",
    );
    m.put(
        "apply.alloc_bytes",
        median(
            &applied
                .iter()
                .map(|c| c.alloc_bytes as f64)
                .collect::<Vec<_>>(),
        ),
        "bytes/batch",
    );
    m.put(
        "schemes.relabeled",
        mean(&b.iter().map(|c| c.relabeled as f64).collect::<Vec<_>>()),
        "count/batch",
    );
    m.put(
        "schemes.overflow_events",
        mean(
            &b.iter()
                .map(|c| c.overflow_events as f64)
                .collect::<Vec<_>>(),
        ),
        "count/batch",
    );
    const APPLY_US: [&str; 5] = [
        "schemes.qed.apply_us",
        "schemes.ordpath.apply_us",
        "schemes.deweyid.apply_us",
        "schemes.vector.apply_us",
        "schemes.xpath_accelerator.apply_us",
    ];
    const BITS: [&str; 5] = [
        "schemes.qed.label_bits_mean",
        "schemes.ordpath.label_bits_mean",
        "schemes.deweyid.label_bits_mean",
        "schemes.vector.label_bits_mean",
        "schemes.xpath_accelerator.label_bits_mean",
    ];
    for ((tag, apply_us), bits) in SKEW_SCHEMES.iter().zip(APPLY_US).zip(BITS) {
        m.put(apply_us, median_of(&spans, &format!("apply/{tag}")), "us");
        let mean_bits = traced.scheme_labels.get(tag).map_or(0.0, |l| l.mean());
        m.put(bits, mean_bits, "bits");
    }
    let absorbed: Vec<_> = b.iter().filter(|c| c.absorbed).collect();
    let per_absorbed = |f: fn(&mirror::BatchCounts) -> u64| {
        mean(&absorbed.iter().map(|c| f(c) as f64).collect::<Vec<_>>())
    };
    m.put(
        "querycache.unaffected",
        per_absorbed(|c| c.unaffected),
        "count/batch",
    );
    m.put(
        "querycache.repaired",
        per_absorbed(|c| c.repaired),
        "count/batch",
    );
    m.put(
        "querycache.rebuilt",
        per_absorbed(|c| c.rebuilt),
        "count/batch",
    );
    m.put(
        "document.snapshot_rebuilds",
        if b.is_empty() {
            0.0
        } else {
            traced.snapshot_rebuilds as f64 / b.len() as f64
        },
        "count/batch",
    );
    let lanes = &traced.lanes;
    let (_, tq) = tail_percentiles(workload);
    let wait_tail: Tail = tail(&lanes.queue_wait_us, tq);
    if !lanes.queue_wait_us.is_empty() {
        tails.set("store.queue_wait_us.tail", wait_tail.to_json());
    }
    m.put(
        "store.queue_wait_us.p50",
        median(&lanes.queue_wait_us),
        "us",
    );
    m.put("store.queue_wait_us.tail", wait_tail.value, "us");
    m.put(
        "store.service_us.update",
        median(&lanes.service_update_us),
        "us",
    );
    m.put(
        "store.service_us.query",
        median(&lanes.service_query_us),
        "us",
    );
    m.put(
        "store.hot_lane_busy_frac",
        median(&lanes.hot_lane_busy_frac),
        "ratio",
    );
    m.put("exec.worker_util", median(&lanes.worker_util), "ratio");
    m.put(
        "trace.overhead_frac",
        traced.timed_ns as f64 / untraced.timed_ns.max(1) as f64 - 1.0,
        "ratio",
    );
    m
}

/// The calling thread's scheduler counters: time on a CPU and time
/// spent runnable but waiting for one. The second shows contention
/// from other processes on the machine.
fn sched_json() -> Json {
    let raw = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut f = raw
        .split_whitespace()
        .map(|x| x.parse::<u64>().unwrap_or(0));
    Json::obj()
        .with("on_cpu_s", f.next().unwrap_or(0) as f64 / 1e9)
        .with("runqueue_wait_s", f.next().unwrap_or(0) as f64 / 1e9)
}

/// Where reports and spans go: beside the executable, inside the
/// build directory.
fn out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
        .join("perfbench-out")
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the library sources the benchmark was built from, so a
/// result can be matched to its code where no git metadata exists.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        if let Ok(rd) = std::fs::read_dir(dir) {
            for e in rd.flatten() {
                let p = e.path();
                if p.is_dir() {
                    walk(&p, files);
                } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                    files.push(p);
                }
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for byte in std::fs::read(f).unwrap_or_default() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x} over {} files", files.len())
}

/// The repository commit, when the benchmark runs in a git checkout
/// (an exported source tree has none, and git must not find an
/// enclosing repository instead).
fn git_commit() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if !root.join(".git").exists() {
        return "unknown (not a git checkout)".to_string();
    }
    let root = root.display().to_string();
    command_line("git", &["-C", &root, "rev-parse", "HEAD"])
}

fn provenance() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Json::obj()
        .with("nproc", nproc)
        .with("cpu_model", cpu)
        .with("rustc", command_line("rustc", &["--version"]))
        .with("git_commit", git_commit())
        .with("source_digest", source_digest())
}

fn checks_json(ph: &Phase) -> Json {
    Json::Obj(
        ph.checks
            .iter()
            .map(|(k, t)| {
                let mut o = Json::obj()
                    .with("passed", t.passed)
                    .with("failed", t.failed);
                if let Some(f) = &t.first_failure {
                    o.set("first_failure", f.chars().take(300).collect::<String>());
                }
                (k.clone(), o)
            })
            .collect(),
    )
}

fn nodes_json(ph: &Phase) -> Json {
    Json::Obj(
        ph.nodes
            .iter()
            .map(|(k, v)| (k.clone(), Json::Int(*v)))
            .collect(),
    )
}

fn run(args: &Args) -> Result<(bool, u64, u64, Metrics, Json), String> {
    let work = Work::generate(args)?;
    let mut report = Json::obj()
        .with("workload", args.workload.as_str())
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
        .with("size", if args.size.tiny { "tiny" } else { "full" })
        .with("provenance", provenance());
    let mut tails = Json::obj();
    let (correct, attempted, failed, metrics) = if args.trace {
        trace::set_enabled(false);
        let untraced = work.run(Stop::Seconds(args.seconds / 2.0), false);
        trace::clear();
        trace::set_enabled(true);
        let traced = work.run(Stop::Rounds(untraced.rounds), true);
        trace::set_enabled(false);
        let same_state = traced.state == untraced.state && !traced.state.is_empty();
        let metrics = per_layer(&traced, &untraced, &args.workload, &mut tails);
        let spans_path = out_dir().join(format!("{}-seed{}-spans.jsonl", args.workload, args.seed));
        let spans = std::fs::create_dir_all(out_dir())
            .and_then(|()| trace::write_jsonl(&spans_path))
            .map_err(|e| format!("writing spans: {e}"))?;
        report.set("spans_file", spans_path.display().to_string());
        report.set("spans", spans);
        report.set("rounds", traced.rounds);
        report.set("nodes", nodes_json(&traced));
        report.set("checks_untraced", checks_json(&untraced));
        report.set("checks_traced", checks_json(&traced));
        report.set("traced_state_equals_untraced", same_state);
        let correct = same_state && untraced.all_checks_pass() && traced.all_checks_pass();
        let attempted = untraced.attempted + traced.attempted;
        let failed = untraced.failed + traced.failed;
        if let Some(e) = untraced.first_error.or(traced.first_error) {
            report.set("first_error", e);
        }
        (correct, attempted, failed, metrics)
    } else {
        let ph = work.run(Stop::Seconds(args.seconds), false);
        let metrics = end_to_end(&ph, &args.workload, &mut tails);
        report.set("rounds", ph.rounds);
        report.set("nodes", nodes_json(&ph));
        report.set("checks", checks_json(&ph));
        report.set(
            "samples",
            Json::obj()
                .with("setup_s", distribution(&ph.setup_s))
                .with("update_ms", distribution(&ph.update_ms))
                .with("query_us", distribution(&ph.query_us))
                .with("xpath_ms", distribution(&ph.xpath_ms)),
        );
        if let Some(e) = &ph.first_error {
            report.set("first_error", e.as_str());
        }
        (ph.all_checks_pass(), ph.attempted, ph.failed, metrics)
    };
    report.set("failed_frac", failed as f64 / attempted.max(1) as f64);
    report.set("main_thread_sched", sched_json());
    report.set("tails", tails);
    report.set("metrics", metrics.to_json());
    Ok((correct, attempted, failed, metrics, report))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (correct, attempted, failed, metrics, report) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let report_path = out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&report_path, format!("{report}\n")))
    {
        eprintln!("perfbench: writing {}: {e}", report_path.display());
    }
    println!("{}", Json::obj().with("report", report));
    let last = Json::obj()
        .with("correct", correct)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", metrics.to_json());
    println!("{last}");
    ExitCode::SUCCESS
}
