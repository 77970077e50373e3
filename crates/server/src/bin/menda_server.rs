//! Daemon entry point: `menda-server [--addr A] [--workers N] [--queue N]
//! [--max-nnz N] [--preemption-quantum N] [--threads N]`.
//!
//! Binds the address, prints one status line, and serves until a client
//! sends `{"op":"shutdown"}`. Bad arguments exit 2 with a message —
//! never a panic.

use menda_server::{ServerConfig, ServerHandle};

fn usage() -> String {
    concat!(
        "usage: menda-server [options]\n",
        "  --addr HOST:PORT   listen address (default 127.0.0.1:7870; port 0 = ephemeral)\n",
        "  --workers N        worker threads (default: one per core)\n",
        "  --queue N          bounded queue capacity (default 64)\n",
        "  --max-nnz N        per-job simulated-nonzero cap (default 64000000)\n",
        "  --preemption-quantum N\n",
        "                     run jobs in N-device-cycle quanta and stop a job\n",
        "                     past its deadline at the next quantum boundary\n",
        "                     (default 65536; results are bit-identical at\n",
        "                     every quantum)\n",
        "  --threads N        engine worker threads for jobs that leave\n",
        "                     'threads' unset, in [1, 1024] (default: engine\n",
        "                     auto; outcomes are bit-identical at every count)\n",
        "  --help             show this message\n",
    )
    .to_string()
}

fn parse_args(args: &[String]) -> Result<(String, ServerConfig), String> {
    let mut addr = "127.0.0.1:7870".to_string();
    let mut config = ServerConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut take = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => addr = take("--addr")?.clone(),
            "--workers" => {
                config.workers = parse_num(take("--workers")?, "--workers")?;
            }
            "--queue" => {
                config.queue_capacity = parse_num(take("--queue")?, "--queue")?;
                if config.queue_capacity == 0 {
                    return Err("--queue must be at least 1".into());
                }
            }
            "--max-nnz" => {
                config.max_job_nnz = parse_num(take("--max-nnz")?, "--max-nnz")?;
            }
            "--preemption-quantum" => {
                let quantum: u64 =
                    parse_num(take("--preemption-quantum")?, "--preemption-quantum")?;
                if quantum == 0 {
                    return Err("--preemption-quantum must be at least 1".into());
                }
                config.preemption_quantum = Some(quantum);
            }
            "--threads" => {
                let threads: usize = parse_num(take("--threads")?, "--threads")?;
                if !(1..=1024).contains(&threads) {
                    return Err(format!("--threads must be in [1, 1024], got {threads}"));
                }
                config.default_threads = Some(threads);
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    Ok((addr, config))
}

fn parse_num<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: invalid number {value:?}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (addr, config) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let server = match ServerHandle::bind(&addr, config.clone()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("menda-server: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "menda-server listening on {} ({} workers, queue {})",
        server.local_addr(),
        config.effective_workers(),
        config.queue_capacity
    );
    server.join();
    println!("menda-server: shut down");
}
