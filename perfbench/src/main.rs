//! The repository benchmark: three workloads over the UPI system, each
//! driven by one closed-loop client, reporting end-to-end metrics (run
//! with `--trace 0`) or per-layer metrics from a traced run (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm_point --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Everything else (progress, the check report) goes to standard error.
//! A traced run also writes its spans to `perfbench/out/`.
//!
//! Units: `*_device_ms` are simulated device milliseconds (the paper's
//! unit; deterministic for a given seed, except that churn_sharded's
//! shard workers race on the shared top-k watermark), `*_wall_us` host
//! wall time. The simulated disk never sleeps, so host wall time is pure
//! CPU.
//!
//! End-to-end metrics (`--trace 0`):
//! - `query_ms_p50`, `query_ms_p99`: host wall plus simulated device time
//!   per query — the latency a client would see if the device really
//!   took the time the simulation charges.
//! - `loop_ms_per_query`: the same sum over the whole measured loop
//!   (queries, and on churn_sharded also commits, flushes, maintenance
//!   and checkpoints), per query.
//! - `space_amp`: live bytes on the simulated disk per encoded byte of
//!   the live tuples, at the end of the loop.
//! - `setup_s`: median of three set-ups (generation, build, load,
//!   warm-up); `peak_rss_mb`: the process's peak resident memory.
//!
//! Raw host wall time (`query_wall_us_*`, `queries_per_s`) varies too much
//! between runs on a shared 2-core host to be gated; the traced run
//! reports it with the per-layer metrics.
//!
//! Correctness: every query is compared with a brute-force answer
//! ([`oracle`]), churn_sharded checks that every acknowledged write
//! survives a crash, and each run cross-checks its device-time and
//! counter accounting against the system's own; any mismatch counts in
//! `failed` and clears `correct`.

mod layers;
mod oracle;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use crate::workloads::Workload;

/// Command-line arguments.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// The default workload seed, used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                Workload::ALL
                    .iter()
                    .map(|w| w.name())
                    .collect::<Vec<_>>()
                    .join("|")
            );
            return ExitCode::from(2);
        }
    };
    let result = workloads::run(&args);
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}
