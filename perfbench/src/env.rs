//! Environment fingerprint and machine-speed canary recorded with every
//! result, so runs taken on a different or suddenly slower machine can be
//! recognised. Nothing here is used to rescale a measurement.

use crate::json::Obj;
use fast_nn::Session;
use std::hint::black_box;
use std::time::Instant;

/// Times a fixed, program-independent loop and returns its wall time in
/// milliseconds: an xorshift hash chain written through an 8 MiB buffer,
/// so both core speed and the shared cache and memory show in it.
pub fn calib_ms() -> f64 {
    let start = Instant::now();
    let mut buf = vec![0u64; 1 << 20];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for round in 0..8u64 {
        for (i, slot) in buf.iter_mut().enumerate() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *slot = slot.wrapping_add(x ^ (i as u64).wrapping_mul(round));
        }
        black_box(&mut buf);
    }
    black_box(buf.iter().fold(0u64, |a, &b| a ^ b));
    start.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
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

/// The fingerprint: core counts, numerics defaults and their environment
/// overrides, server worker counts, source revision and compiler.
pub fn fingerprint(mlp_workers: usize, b1_workers: usize) -> Obj {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let mut overrides = Obj::new();
    let mut vars: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("FAST_"))
        .collect();
    vars.sort();
    for (k, v) in vars {
        overrides.str(&k, &v);
    }
    let mut o = Obj::new();
    o.num("nproc", nproc as f64);
    o.num(
        "tensor_workers",
        fast_tensor::parallelism().workers() as f64,
    );
    o.str("exec_mode", &format!("{:?}", Session::default_exec_mode()));
    o.str("sr_mode", &format!("{:?}", Session::default_sr_mode()));
    o.obj("fast_env", overrides);
    o.num("mlp_server_workers", mlp_workers as f64);
    o.num("b1_server_workers", b1_workers as f64);
    // Only ask git inside a repository root: a bare checkout must not pick
    // up the revision of some enclosing repository.
    let rev = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    o.str("git_rev", &rev);
    o.str("rustc", &command_line("rustc", &["--version"]));
    o
}
