//! `costbench`: host cost per committed op, split by layer, on three
//! workloads.
//!
//! ```text
//! cargo run --release --manifest-path costbench/Cargo.toml -- \
//!     --workload craft_geo --seed 4242 --seconds 30 --trace 0
//! ```
//!
//! One process, one thread. A run repeats fixed-length deployments of the
//! workload until `--seconds` have passed, cycling through a fixed set of
//! sub-seeds derived from `--seed`: simulated figures and counts come from
//! the first pass over the sub-seeds (so they repeat exactly), host times
//! from medians over each sub-seed's repeats. Host times are thread CPU
//! time, scaled to a reference machine speed by a calibration kernel run
//! between deployments ([`calib`]). `--trace 0` prints the end-to-end
//! metrics; `--trace 1` also runs every deployment a second time with the
//! wrappers of [`probe`] in place and prints the per-layer metrics. The
//! last stdout line is one JSON object; any correctness failure exits 1.

mod alloc;
mod calib;
mod harness_cells;
mod metrics;
mod probe;
mod shard_cell;
mod stats;
mod window;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use window::Window;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// A workload: its name, its deployment, and how many distinct sub-seeds
/// one run cycles through.
pub struct Workload {
    /// CLI name.
    pub name: &'static str,
    /// Builds, warms up and measures one deployment.
    pub run: fn(u64, bool) -> Result<Window, String>,
    /// Distinct sub-seeds per run.
    pub distinct: usize,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "craft_geo",
        run: harness_cells::run_craft_geo,
        distinct: 4,
    },
    Workload {
        name: "fast_rw_crash",
        run: harness_cells::run_fast_rw_crash,
        distinct: 16,
    },
    Workload {
        name: "shard_park",
        run: shard_cell::run_shard_park,
        distinct: 2,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(4242),
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    })
}

/// The `i`-th sub-seed of `seed` (SplitMix64 finalizer over both).
fn sub_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every deployment of one run.
pub struct Runs {
    /// Untraced, in run order; the first `distinct` have distinct seeds.
    pub plain: Vec<Window>,
    /// Traced twins of `plain` (empty without `--trace 1`).
    pub traced: Vec<Window>,
    /// Distinct sub-seeds.
    pub distinct: usize,
    /// Speed scale of each deployment (and its traced twin), from the
    /// calibration readings around it.
    pub scales: Vec<f64>,
}

/// Runs deployments until the budget is spent (and every sub-seed ran),
/// checking each against the harness, its traced twin and its earlier
/// repeats.
fn run(args: &Args) -> Result<Runs, String> {
    let w = args.workload;
    let seeds: Vec<u64> = (0..w.distinct).map(|i| sub_seed(args.seed, i)).collect();
    let budget = Duration::from_secs(args.seconds);
    let mut runs = Runs {
        plain: Vec::new(),
        traced: Vec::new(),
        distinct: w.distinct,
        scales: Vec::new(),
    };
    // The reference run also warms the allocator and caches before the
    // first measured deployment.
    let reference = match w.name {
        "shard_park" => shard_cell::reference(seeds[0]),
        name => harness_cells::reference(name, seeds[0]),
    };
    let mut readings = vec![calib::reading_ns(f64::INFINITY)];
    let started = Instant::now();
    let mut i = 0;
    while i < w.distinct || started.elapsed() < budget {
        let seed = seeds[i % w.distinct];
        let deployed = Instant::now();
        let plain = (w.run)(seed, false)?;
        if i == 0 && plain.sim.report.as_ref() != Some(&reference) {
            return Err(format!(
                "{} seed {seed}: the benchmark's wiring diverges from the program's own\n  ours:   {:?}\n  theirs: {reference}",
                w.name, plain.sim.report
            ));
        }
        if i >= w.distinct && plain.sim != runs.plain[i % w.distinct].sim {
            return Err(format!(
                "{} seed {seed}: a repeat of the same seed diverged",
                w.name
            ));
        }
        if args.trace {
            let traced = (w.run)(seed, true)?;
            if traced.sim != plain.sim {
                return Err(format!(
                    "{} seed {seed}: tracing perturbed the schedule\n  plain:  {:?}\n  traced: {:?}",
                    w.name, plain.sim.counts, traced.sim.counts
                ));
            }
            metrics::check_traced(w.name, &traced)?;
            runs.traced.push(traced);
        }
        readings.push(calib::reading_ns(deployed.elapsed().as_nanos() as f64));
        let scale = stats::speed_scales(&readings[i..], calib::REFERENCE_NS)[0];
        eprintln!(
            "{} #{i} seed {seed:#018x}: setup {:.3} s, {} ops, {:.2} cpu µs/op x {scale:.3} = {:.2}{}",
            w.name,
            plain.host.setup_s,
            plain.sim.ops,
            plain.cpu_us_per_op(),
            plain.cpu_us_per_op() * scale,
            runs.traced
                .last()
                .map(|t| format!(" (traced {:.2})", t.cpu_us_per_op() * scale))
                .unwrap_or_default()
        );
        runs.plain.push(plain);
        i += 1;
    }
    runs.scales = stats::speed_scales(&readings, calib::REFERENCE_NS);
    Ok(runs)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("costbench: {e}");
            eprintln!(
                "usage: costbench --workload <craft_geo|fast_rw_crash|shard_park> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let outcome =
        run(&args).and_then(|runs| metrics::report(args.workload.name, args.trace, &runs));
    match outcome {
        Ok(report) => {
            print!("{}", report.text);
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("costbench: correctness failure: {e}");
            ExitCode::FAILURE
        }
    }
}
