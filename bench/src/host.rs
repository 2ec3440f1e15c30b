//! Where and on what a result was measured: host fingerprint, toolchain,
//! the commit of the tree that was *measured*, and the process's peak RSS.

use std::process::Command;

use crate::json::escape;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok().map(|s| s.trim().to_owned())
}

fn run(program: &str, args: &[&str], dir: &str) -> Option<String> {
    let out = Command::new(program).args(args).current_dir(dir).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    read("/proc/self/status")
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `git rev-parse HEAD` of the tree the bench was built from, with `-dirty`
/// when the work tree differs from it — the tree measured, not its parent.
/// `unknown` outside a git checkout.
pub fn measured_commit() -> String {
    let dir = env!("CARGO_MANIFEST_DIR");
    let Some(head) = run("git", &["rev-parse", "HEAD"], dir) else { return "unknown".into() };
    match run("git", &["status", "--porcelain"], dir) {
        Some(s) if s.is_empty() => head,
        _ => format!("{head}-dirty"),
    }
}

/// One JSON object describing the host and build.
pub fn fingerprint_json() -> String {
    let cpuinfo = read("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim)
        .to_owned();
    let mut caches = Vec::new();
    for i in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let (Some(level), Some(kind), Some(size)) = (
            read(&format!("{base}/level")),
            read(&format!("{base}/type")),
            read(&format!("{base}/size")),
        ) else {
            continue;
        };
        caches.push(format!("\"L{level} {}\": \"{}\"", escape(&kind), escape(&size)));
    }
    let rustc = run("rustc", &["-V"], ".").unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {}, \"cpu_model\": \"{}\", \"caches\": {{{}}}, \"rustc\": \"{}\", \"commit\": \"{}\"}}",
        nproc(),
        escape(&model),
        caches.join(", "),
        escape(&rustc),
        escape(&measured_commit()),
    )
}
