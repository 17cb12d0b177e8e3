//! `perfbench`: the two-clock benchmark of Perpetual-WS.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One invocation runs one workload. With `--trace 0` it prints the
//! end-to-end metrics: it repeats untraced runs for `--seconds` and
//! reports medians of their CPU cost, then makes one traced run that must
//! reproduce the untraced simulated results exactly. With `--trace 1` it
//! prints the per-layer metrics: untraced runs for half the budget, one
//! traced run, then the layer replays. Every correctness check failing
//! ends the program with exit code 1 and no numbers. The last line of
//! standard output is the result object; the full record (workload
//! parameters, seed, commit, schema version, sample counts) goes to the
//! line before it and to `.perfbench-out/` in the working directory.
//!
//! See `README.md` beside this crate for the metric → layer → workload
//! table.

mod clock;
mod layers;
mod probe;
mod workloads;

use clock::{median, quantile, ratio};
use perpetual_ws::runtime::default_ws_net;
use probe::Probe;
use pws_simnet::Phase;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Exec, Measured};

/// Version of the output record's layout.
const SCHEMA: u32 = 1;
/// Untraced runs at least made per invocation with `--trace 0`.
const MIN_REPS: usize = 3;
/// Builds timed per untraced run (the set-up samples).
const SETUP_BUILDS: usize = 3;
/// Shard count the router replay routes to.
const ROUTE_SHARDS: u32 = 4;
/// Nominal time of the reference job: `cpu_us_per_req` is scaled to a
/// host that runs it this fast (about what the 2-core Xeon host the
/// benchmark was tuned on takes).
const REFERENCE_MS: f64 = 10.0;
/// Where outputs are written, relative to the working directory.
const OUT_DIR: &str = ".perfbench-out";

/// Environment switches the program reads (they turn the auditor on for
/// runs that did not ask for it); cleared so nothing outside the command
/// line can change what is measured.
const SCRUBBED_ENV: [&str; 2] = ["PWS_AUDIT", "PWS_AUDIT_SMOKE"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {})",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: match trace.ok_or("--trace is required")? {
            0 => false,
            1 => true,
            t => return Err(format!("--trace must be 0 or 1, got {t}")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    for var in SCRUBBED_ENV {
        std::env::remove_var(var);
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            ExitCode::from(1)
        }
    }
}

/// One metric as printed: name, unit, value, and how many samples it
/// summarises (1 for a single count or ratio).
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: usize,
}

fn metric(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples,
    }
}

/// Untraced runs: their costs, the reference job timed before, between
/// and after them, and the first run's memory growth.
struct Untraced {
    /// On-CPU µs per completed request, per run.
    cpu_us_per_req: Vec<f64>,
    /// Wall ÷ on-CPU time, per run.
    wall_over_cpu: Vec<f64>,
    /// On-CPU seconds of each build, per run.
    setup_s: Vec<Vec<f64>>,
    /// The reference job, before the first run, between runs and after
    /// the last (one more entry than runs).
    reference_ms: Vec<f64>,
    rss_kb_per_req: f64,
}

impl Untraced {
    /// The factor that scales run `i` to a host that runs the reference
    /// job in [`REFERENCE_MS`]: the nominal time over the mean of the
    /// reference jobs timed right before and right after the run.
    ///
    /// On-CPU time of identical work on a shared host drifts with the
    /// neighbours, by up to a third over minutes. The reference job is
    /// fixed standard-library work that no change to the program can
    /// move, so the ratio cancels the part of the drift the two share.
    fn scale(&self, i: usize) -> f64 {
        REFERENCE_MS / ((self.reference_ms[i] + self.reference_ms[i + 1]) / 2.0)
    }

    fn scaled_cpu_us_per_req(&self) -> Vec<f64> {
        let runs = self.cpu_us_per_req.iter().enumerate();
        runs.map(|(i, cpu)| cpu * self.scale(i)).collect()
    }

    fn scaled_setup_s(&self) -> Vec<f64> {
        let runs = self.setup_s.iter().enumerate();
        runs.flat_map(|(i, builds)| builds.iter().map(move |s| s * self.scale(i)))
            .collect()
    }
}

/// Repeats untraced runs until `budget_s` has passed (and at least
/// `min_reps` were made), checking each reproduces the first exactly;
/// returns the last run.
fn untraced_runs(
    args: &Args,
    budget_s: f64,
    min_reps: usize,
    builds: usize,
) -> Result<(Exec, Untraced), String> {
    let t0 = Instant::now();
    let mut last: Option<Exec> = None;
    let mut reference = None;
    let mut u = Untraced {
        cpu_us_per_req: Vec::new(),
        wall_over_cpu: Vec::new(),
        setup_s: Vec::new(),
        reference_ms: Vec::new(),
        rss_kb_per_req: 0.0,
    };
    // The first reference job of a process pays for first-touch page
    // faults; run it once unmeasured.
    clock::reference_job_ns();
    while u.cpu_us_per_req.len() < min_reps || t0.elapsed().as_secs_f64() < budget_s {
        // Only one system is alive at a time, so the peak RSS is one run's.
        drop(last.take());
        u.reference_ms.push(clock::reference_job_ns() as f64 / 1e6);
        let e = workloads::execute(&args.workload, args.seed, None, builds)?;
        let completed = e.sim.completed as f64;
        u.cpu_us_per_req.push(e.run.cpu_ns as f64 / 1e3 / completed);
        u.wall_over_cpu
            .push(e.run.wall_ns as f64 / e.run.cpu_ns as f64);
        u.setup_s
            .push(e.setup.iter().map(|c| c.cpu_ns as f64 / 1e9).collect());
        match &reference {
            None => {
                u.rss_kb_per_req = e.rss_ran_kb.saturating_sub(e.rss_built_kb) as f64 / completed;
                reference = Some(e.sim.clone());
            }
            Some(r) if *r != e.sim => {
                return Err("two untraced runs of the same seed differ".into());
            }
            Some(_) => {}
        }
        last = Some(e);
    }
    u.reference_ms.push(clock::reference_job_ns() as f64 / 1e6);
    let show = |xs: &[f64]| {
        xs.iter()
            .map(|v| format!("{v:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!("untraced runs, cpu_us_per_req: {}", show(&u.cpu_us_per_req));
    eprintln!("reference job around them, ms: {}", show(&u.reference_ms));
    Ok((last.expect("at least one run"), u))
}

/// The traced run: must reproduce the untraced simulated outcome exactly.
fn traced_run(args: &Args, reference: &Exec, probe: &Probe) -> Result<Exec, String> {
    let t = workloads::execute(&args.workload, args.seed, Some(probe), 1)?;
    if t.sim != reference.sim {
        return Err("the traced run's simulated results differ from the untraced run's".into());
    }
    Ok(t)
}

/// Per-request lifecycle figures from the traced run's request spans:
/// round trips, completion times, and the delay into each phase.
#[derive(Default)]
struct SpanFigures {
    total_ms: Vec<f64>,
    ends_s: Vec<f64>,
    into_ms: BTreeMap<&'static str, Vec<f64>>,
}

fn span_figures(t: &mut Exec) -> SpanFigures {
    let mut out = SpanFigures::default();
    let (targets, callers) = (&t.requests.targets, &t.requests.callers);
    for (key, span) in t.sys.sim_mut().obs().spans() {
        // The low 32 bits of a request origin name the calling group.
        let caller = (key.origin & 0xffff_ffff) as u32;
        if !span.is_closed()
            || !targets.iter().any(|g| g.0 == key.group)
            || !callers.iter().any(|g| g.0 == caller)
        {
            continue;
        }
        let (Some(start), Some(end)) = (span.start_us(), span.end_us()) else {
            continue;
        };
        out.total_ms.push((end - start) as f64 / 1e3);
        out.ends_s.push(end as f64 / 1e6);
        let seen: Vec<(Phase, u64)> = span.phases().collect();
        for (i, &(phase, at)) in seen.iter().enumerate().skip(1) {
            let prev = seen[..i].iter().map(|&(_, t)| t).max().unwrap_or(at);
            out.into_ms
                .entry(phase.name())
                .or_default()
                .push(at.saturating_sub(prev) as f64 / 1e3);
        }
    }
    out
}

fn run(args: &Args) -> Result<(), String> {
    let started = Instant::now();
    let budget = args.seconds as f64;
    let probe = Probe::new(clock::clock_overhead_ns());
    let (reference, metrics) = if args.trace {
        let (reference, u) = untraced_runs(args, budget / 2.0, 1, 1)?;
        let mut t = probe.span("traced_run", || traced_run(args, &reference, &probe))?;
        let layer_budget = (budget - started.elapsed().as_secs_f64()).max(1.0);
        let m = per_layer(args, &reference, &mut t, &u, &probe, layer_budget);
        (reference, m)
    } else {
        let (reference, u) = untraced_runs(args, budget, MIN_REPS, SETUP_BUILDS)?;
        let peak_kb = clock::peak_rss_kb();
        let mut t = traced_run(args, &reference, &probe)?;
        let m = end_to_end(&reference, &mut t, &u, peak_kb);
        (reference, m)
    };
    let dir = out_dir()?;
    let mut span_totals = Vec::new();
    if args.trace {
        let spans = dir.join(format!("{}-seed{}-spans.jsonl", args.workload, args.seed));
        probe
            .write_spans(&spans)
            .map_err(|e| format!("writing {}: {e}", spans.display()))?;
        for (name, count, ns) in probe.totals() {
            eprintln!(
                "span {name:<44} x{count:<8} {:>12.3} ms cpu",
                ns as f64 / 1e6
            );
            span_totals.push(format!(
                "\"{}\":{{\"count\":{count},\"cpu_ns\":{ns}}}",
                pws_simnet::escape_json(name)
            ));
        }
    }
    report(args, &reference, &metrics, &span_totals, &dir)
}

fn end_to_end(reference: &Exec, t: &mut Exec, u: &Untraced, peak_kb: u64) -> Vec<Metric> {
    let sim = &reference.sim;
    let spans = span_figures(t);
    let (rps, outage_ms, lat) = match reference.requests.measured {
        Measured::AtClient => (sim.throughput_rps, sim.outage_ms, sim.latencies_ms.clone()),
        Measured::LatencyFromSpans => (sim.throughput_rps, sim.outage_ms, spans.total_ms),
        Measured::FromSpans => {
            let (rps, gap) = workloads::count_window_stats(&spans.ends_s, 1.0);
            (rps, gap, spans.total_ms)
        }
    };
    let n = lat.len();
    let reps = u.cpu_us_per_req.len();
    let setup = u.scaled_setup_s();
    vec![
        metric("sim_throughput_rps", "req/s", rps, 1),
        metric("sim_latency_p50_ms", "ms", quantile(&lat, 0.50), n),
        metric("sim_latency_p99_ms", "ms", quantile(&lat, 0.99), n),
        metric("sim_outage_ms", "ms", outage_ms, 1),
        metric(
            "completed_ratio",
            "ratio",
            ratio(sim.completed as f64, sim.attempted as f64),
            1,
        ),
        metric(
            "cpu_us_per_req",
            "us",
            median(&u.scaled_cpu_us_per_req()),
            reps,
        ),
        metric("setup_s", "s", median(&setup), setup.len()),
        metric("peak_rss_mb", "MB", peak_kb as f64 / 1024.0, 1),
    ]
}

/// Pooled values of every gauge ring whose name starts with `prefix`.
fn gauge_values(e: &Exec, prefix: &str) -> Vec<f64> {
    e.sys
        .metrics()
        .gauges()
        .filter(|(name, _)| name.starts_with(prefix))
        .flat_map(|(_, ring)| ring.iter().map(|(_, v)| v))
        .collect()
}

fn per_layer(
    args: &Args,
    reference: &Exec,
    t: &mut Exec,
    u: &Untraced,
    probe: &Probe,
    budget_s: f64,
) -> Vec<Metric> {
    let spans = span_figures(t);
    let nodes = t.sys.sim_mut().node_count() as u32;
    let m = reference.sys.metrics();
    let c = |k: &str| m.counter(k) as f64;
    let tc = |k: &str| t.sys.metrics().counter(k) as f64;
    let done = reference.sim.completed as f64;
    let per_req = |k: &str| ratio(c(k), done);
    let phase_q = |p: Phase, q: f64| spans.into_ms.get(p.name()).map_or(0.0, |v| quantile(v, q));
    let shape = workloads::shape(&args.workload);
    let mean_msg = ratio(c("net.bytes_sent"), c("net.messages_sent")).round() as usize;
    let (requests, replies) = probe.envelopes();
    let envelopes: Vec<_> = requests.iter().chain(&replies).cloned().collect();
    let mean_request = if requests.is_empty() {
        mean_msg
    } else {
        requests
            .iter()
            .map(|mc| mc.to_bytes().map_or(0, |b| b.len()))
            .sum::<usize>()
            / requests.len()
    };
    let reply_bytes = ratio(
        replies
            .iter()
            .map(|mc| mc.to_bytes().map_or(0, |b| b.len()) as f64)
            .sum(),
        replies.len() as f64,
    );
    // Little's law: messages in flight = send rate × mean hop latency.
    let link = default_ws_net().default_link();
    let hop_s = link.base.as_secs_f64() + mean_msg as f64 * link.per_byte_us / 1e6;
    let in_flight = ratio(c("net.messages_sent") * hop_s, reference.sim.active_s).ceil() as u32;
    let slice = (budget_s * 1e9 / 8.0) as u64;
    let sha = probe.span("replay.sha256", || {
        layers::sha256_ns_per_kb(mean_msg, slice)
    });
    let mac = probe.span("replay.mac", || layers::mac_ns(mean_msg, slice));
    let bundle = probe.span("replay.bundle", || {
        layers::bundle_verify_ns(shape.target_n, shape.caller_n, slice)
    });
    let (marshal, parse) = probe.span("replay.soap", || layers::soap_ns(&envelopes, 2 * slice));
    let route = probe.span("replay.route", || {
        layers::route_ns(&reference.requests.keys, ROUTE_SHARDS, slice)
    });
    let sched = probe.span("replay.sched", || {
        layers::sched_ns_per_msg(nodes, in_flight.max(1), mean_msg, slice)
    });
    let order = probe.span("replay.clbft", || {
        layers::clbft_order_us(mean_request, shape.burst, shape.max_batch, slice)
    });
    let traced_cpu = t.run.cpu_ns as f64 / 1e3 / done;
    let untraced_cpu = median(&u.cpu_us_per_req);
    let committed = c("clbft.txn.committed");
    let lags = &reference.sim.gen_lag_ms;
    vec![
        metric(
            "simnet.msgs_per_req",
            "count",
            per_req("net.messages_sent"),
            1,
        ),
        metric("simnet.bytes_per_req", "B", per_req("net.bytes_sent"), 1),
        metric(
            "simnet.busy_ms_per_req",
            "ms",
            per_req("cpu.busy_us") / 1e3,
            1,
        ),
        metric("simnet.sched_ns_per_msg", "ns", sched, 1),
        metric("simnet.msgs_lost", "count", c("net.messages_lost"), 1),
        metric("crypto.sha256_ns_per_kb", "ns", sha, 1),
        metric("crypto.mac_ns", "ns", mac, 1),
        metric("crypto.bundle_verify_ns", "ns", bundle, 1),
        metric(
            "perpetual.bundles_validated_per_req",
            "count",
            per_req("perpetual.bundles_validated"),
            1,
        ),
        metric("soap.marshal_ns", "ns", marshal, envelopes.len()),
        metric("soap.parse_ns", "ns", parse, envelopes.len()),
        metric("soap.reply_bytes", "B", reply_bytes, replies.len()),
        metric(
            "clbft.mean_batch",
            "count",
            m.mean_batch_occupancy("clbft.exec"),
            1,
        ),
        metric(
            "clbft.slots_per_req",
            "count",
            per_req("clbft.exec.batches"),
            1,
        ),
        metric("clbft.order_us_per_req", "us", order, 1),
        metric(
            "clbft.ro_served_ratio",
            "ratio",
            ratio(c("clbft.ro.accepted"), c("client.reads_issued")),
            1,
        ),
        metric("clbft.vc_started", "count", tc("clbft.vc.started"), 1),
        metric("clbft.vc_completed", "count", tc("clbft.vc.completed"), 1),
        metric("clbft.ckpt_stable", "count", c("clbft.ckpt.stable"), 1),
        metric(
            "clbft.pages_hashed_per_req",
            "count",
            per_req("clbft.pages.hashed"),
            1,
        ),
        metric(
            "clbft.batched_p50_ms",
            "ms",
            phase_q(Phase::Batched, 0.5),
            1,
        ),
        metric(
            "clbft.batched_p99_ms",
            "ms",
            phase_q(Phase::Batched, 0.99),
            1,
        ),
        metric(
            "clbft.prepared_p99_ms",
            "ms",
            phase_q(Phase::Prepared, 0.99),
            1,
        ),
        metric(
            "clbft.committed_p99_ms",
            "ms",
            phase_q(Phase::Committed, 0.99),
            1,
        ),
        metric(
            "clbft.queue_depth_p95",
            "count",
            quantile(&gauge_values(t, "ts.queue_depth."), 0.95),
            1,
        ),
        metric(
            "clbft.inflight_p95",
            "count",
            quantile(&gauge_values(t, "ts.inflight."), 0.95),
            1,
        ),
        metric(
            "perpetual.msgs_per_req",
            "count",
            per_req("perpetual.messages_sent"),
            1,
        ),
        metric(
            "perpetual.executed_p99_ms",
            "ms",
            phase_q(Phase::Executed, 0.99),
            1,
        ),
        metric(
            "perpetual.replied_p99_ms",
            "ms",
            phase_q(Phase::Replied, 0.99),
            1,
        ),
        metric(
            "perpetual.retries",
            "count",
            c("client.call_retries")
                + c("perpetual.call_retries")
                + c("perpetual.shares_retransmitted"),
            1,
        ),
        metric(
            "perpetual.view_timeouts",
            "count",
            c("perpetual.view_timeouts"),
            1,
        ),
        metric(
            "core.txn_commit_ratio",
            "ratio",
            ratio(committed, committed + c("clbft.txn.aborted")),
            1,
        ),
        metric("core.txn_aborts", "count", c("clbft.txn.aborted"), 1),
        metric(
            "core.lock_table_p95",
            "count",
            quantile(&gauge_values(t, "ts.lock_table."), 0.95),
            1,
        ),
        metric("core.route_retries", "count", c("client.route_retries"), 1),
        metric("core.route_ns", "ns", route, 1),
        metric(
            "core.app_cpu_us_per_req",
            "us",
            probe.handler_ns() / 1e3 / done,
            probe.handler_calls() as usize,
        ),
        metric(
            "tpcw.pge_share",
            "ratio",
            ratio(c("tpcw.pge_interactions"), c("tpcw.web_interactions")),
            1,
        ),
        metric(
            "obs.overhead_pct",
            "%",
            (traced_cpu / untraced_cpu - 1.0) * 100.0,
            1,
        ),
        metric(
            "obs.audit_violations",
            "count",
            t.sys.audit_violations() as f64,
            1,
        ),
        metric("bench.rss_kb_per_req", "KB", u.rss_kb_per_req, 1),
        metric(
            "bench.gen_lag_p99_ms",
            "ms",
            quantile(lags, 0.99),
            lags.len(),
        ),
        metric(
            "bench.wall_over_cpu",
            "ratio",
            median(&u.wall_over_cpu),
            u.wall_over_cpu.len(),
        ),
        metric(
            "bench.cpu_us_per_req_unscaled",
            "us",
            untraced_cpu,
            u.cpu_us_per_req.len(),
        ),
        metric(
            "bench.reference_job_ms",
            "ms",
            median(&u.reference_ms),
            u.reference_ms.len(),
        ),
    ]
}

fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    Ok(dir)
}

/// The commit being measured: `git rev-parse HEAD` where that works,
/// otherwise "unknown" (a checkout exported without `.git`).
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

/// SHA-256 over the measured sources (path and contents of every file
/// under the program's crates, vendored dependencies and this benchmark,
/// in path order), identifying the code even where no commit is known.
fn source_digest() -> String {
    fn walk(path: &Path, files: &mut Vec<PathBuf>) {
        if path.is_dir() {
            if let Ok(rd) = std::fs::read_dir(path) {
                for entry in rd.flatten() {
                    walk(&entry.path(), files);
                }
            }
        } else if path.is_file() {
            files.push(path.to_path_buf());
        }
    }
    let mut files = Vec::new();
    for root in [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "vendor",
        "perfbench/Cargo.toml",
        "perfbench/src",
    ] {
        walk(Path::new(root), &mut files);
    }
    files.sort();
    let mut h = pws_crypto::sha256::Sha256::new();
    for f in files {
        h.update(f.to_string_lossy().as_bytes());
        h.update(&std::fs::read(&f).unwrap_or_default());
    }
    h.finalize()
        .as_bytes()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// Prints the metric table (stderr), the full record and the result
/// line (stdout), and writes the record under [`OUT_DIR`].
fn report(
    args: &Args,
    reference: &Exec,
    metrics: &[Metric],
    span_totals: &[String],
    dir: &Path,
) -> Result<(), String> {
    let q = |s: &str| format!("\"{}\"", pws_simnet::escape_json(s));
    for m in metrics {
        eprintln!(
            "{:<36} {:>18} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    let params: Vec<String> = workloads::params(&args.workload)
        .iter()
        .map(|(k, v)| format!("{}:{}", q(k), q(v)))
        .collect();
    let full: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{},\"samples\":{}}}",
                q(m.name),
                m.value,
                q(m.unit),
                m.samples
            )
        })
        .collect();
    let record = format!(
        "{{\"schema\":{SCHEMA},\"workload\":{},\"params\":{{{}}},\"seed\":{},\"seconds\":{},\
         \"trace\":{},\"git_commit\":{},\"source_digest\":{},\"metrics\":{{{}}},\
         \"bench_spans\":{{{}}}}}",
        q(&args.workload),
        params.join(","),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        q(&git_commit()),
        q(&source_digest()),
        full.join(","),
        span_totals.join(",")
    );
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, format!("{record}\n"))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let short: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                q(m.name),
                m.value,
                q(m.unit)
            )
        })
        .collect();
    let sim = &reference.sim;
    println!("{record}");
    println!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        sim.attempted,
        sim.attempted - sim.completed,
        short.join(",")
    );
    Ok(())
}
