//! `kleislid` — the Kleisli query daemon.
//!
//! Serves CPL over the framed TCP protocol (see `kleisli_server::proto`)
//! against the paper's two-source biological federation (a generated
//! GDB/Sybase simulator and a GenBank/Entrez simulator), with the
//! process-wide shared plan and result caches.
//!
//! ```text
//! kleislid [--addr 127.0.0.1:4455] [--loci 500] [--latency-ms 5]
//!          [--plan-cache 64] [--budget-mb 64]
//!          [--max-concurrent 4] [--queue-depth 16]
//! ```

use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

use bio_data::{GdbConfig, GenBankConfig};
use kleisli::bio_federation;
use kleisli_core::LatencyModel;
use kleisli_server::{serve, ServerConfig};

struct Args {
    addr: String,
    loci: usize,
    latency: Duration,
    plan_cache: usize,
    /// `--budget-mb` in bytes.
    budget: u64,
    max_concurrent: usize,
    queue_depth: usize,
}

const USAGE: &str = "usage: kleislid [--addr HOST:PORT] [--loci N] [--latency-ms MS] \
                     [--plan-cache N] [--budget-mb MB] [--max-concurrent N] [--queue-depth N]";

/// The command line after the program name, or why it is refused (an
/// empty reason for `--help`).
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:4455".to_string(),
        loci: 500,
        latency: Duration::from_millis(5),
        plan_cache: 64,
        budget: 64 << 20,
        max_concurrent: 4,
        queue_depth: 16,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--addr" => args.addr = value()?,
            "--loci" => args.loci = parse(&value()?)?,
            "--latency-ms" => args.latency = Duration::from_millis(parse(&value()?)?),
            "--plan-cache" => args.plan_cache = parse(&value()?)?,
            "--budget-mb" => {
                let mb = value()?;
                args.budget = parse::<u64>(&mb)?
                    .checked_mul(1 << 20)
                    .ok_or_else(|| format!("--budget-mb {mb} overflows a 64-bit byte count"))?;
            }
            "--max-concurrent" => args.max_concurrent = parse(&value()?)?,
            "--queue-depth" => args.queue_depth = parse(&value()?)?,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("cannot parse {s:?}"))
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|reason| {
        if !reason.is_empty() {
            eprintln!("{reason}");
        }
        eprintln!("{USAGE}");
        exit(2);
    });
    let fed = bio_federation(
        &GdbConfig {
            loci: args.loci,
            seed: 97,
            ..Default::default()
        },
        &GenBankConfig {
            extra_entries: 50,
            links_per_entry: 3,
            seq_len: 60,
            seed: 97,
        },
        LatencyModel::real(args.latency, Duration::ZERO),
        LatencyModel::real(args.latency, Duration::ZERO),
    )
    .unwrap_or_else(|e| {
        eprintln!("kleislid: cannot generate federation: {e}");
        exit(1);
    });
    let gdb = fed.gdb.clone();
    let genbank = fed.genbank.clone();
    let config = ServerConfig {
        plan_cache_capacity: args.plan_cache,
        result_cache_budget: args.budget,
        max_queries_per_connection: args.max_concurrent,
        queue_depth_per_connection: args.queue_depth,
        ..ServerConfig::default()
    };
    let handle = serve(
        args.addr.as_str(),
        config,
        Arc::new(move |session: &mut kleisli::Session| {
            session.register_driver(gdb.clone());
            session.register_driver(genbank.clone());
        }),
    )
    .unwrap_or_else(|e| {
        eprintln!("kleislid: cannot bind {}: {e}", args.addr);
        exit(1);
    });
    println!("kleislid listening on {}", handle.addr());
    handle.wait();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(argv: &[&str]) -> Result<Args, String> {
        parse_args(argv.iter().map(|a| a.to_string()))
    }

    #[test]
    fn a_budget_is_read_in_mebibytes_and_one_past_64_bits_is_refused() {
        assert_eq!(parsed(&[]).unwrap().budget, 64 << 20);
        assert_eq!(parsed(&["--budget-mb", "0"]).unwrap().budget, 0);
        let largest = (u64::MAX >> 20).to_string();
        assert_eq!(
            parsed(&["--budget-mb", &largest]).unwrap().budget,
            (u64::MAX >> 20) << 20
        );
        // 2^44 MiB is 2^64 bytes, which wrapped to a zero budget.
        let wraps = (1u64 << 44).to_string();
        let refused = parsed(&["--budget-mb", &wraps]).err().unwrap();
        assert!(refused.contains("--budget-mb"), "{refused}");
        assert!(parsed(&["--budget-mb", "-1"]).is_err());
        assert!(parsed(&["--budget-mb"]).is_err());
    }

    #[test]
    fn flags_are_read_and_strangers_refused() {
        let args = parsed(&["--addr", "0.0.0.0:1", "--plan-cache", "8"]).unwrap();
        assert_eq!((args.addr.as_str(), args.plan_cache), ("0.0.0.0:1", 8));
        assert_eq!(parsed(&["--help"]).err().unwrap(), "");
        assert!(parsed(&["--nope"]).err().unwrap().contains("--nope"));
    }
}
