//! Sample statistics, the run environment and the result line.

use std::fmt::Write as _;
use std::path::Path;

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Nearest-rank percentile `q` of `xs` (0 when empty).
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), q) - 1]
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Is percentile `q` of `n` samples backed by at least ten samples beyond
/// it?
pub fn percentile_ok(n: usize, q: f64) -> bool {
    n >= rank(n, q) + 10
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (a median, percentile or count).
    pub samples: usize,
    /// Why the value is a placeholder, when nothing on this workload
    /// exercises it.
    pub note: Option<&'static str>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples,
            note: None,
        }
    }
}

/// Where and on what the run happened.
#[derive(Debug, Clone)]
pub struct Environment {
    pub nproc: usize,
    pub git_rev: String,
    pub ckpt_fs: String,
    pub llc: String,
    pub state_mib: f64,
    pub store_sync: String,
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

/// Filesystem type of the mount holding `dir` (longest mount-point prefix
/// in `/proc/self/mounts`).
fn fs_of(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() >= 3 && dir.starts_with(f[1])).then(|| (f[1].len(), f[2].to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
        .unwrap_or_else(|| "unknown".into())
}

/// Size and level of the last-level cache of CPU 0.
fn llc() -> String {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let read = |p: &Path| std::fs::read_to_string(p).map(|s| s.trim().to_string());
    (0..8)
        .filter_map(|i| {
            let d = base.join(format!("index{i}"));
            let level: u32 = read(&d.join("level")).ok()?.parse().ok()?;
            let kind = read(&d.join("type")).ok()?;
            (kind != "Instruction").then(|| (level, read(&d.join("size")).unwrap_or_default()))
        })
        .max_by_key(|(level, _)| *level)
        .map(|(level, size)| format!("L{level} {size}"))
        .unwrap_or_else(|| "unknown".into())
}

impl Environment {
    pub fn capture(ckpt_root: &Path, state_bytes: usize) -> Environment {
        Environment {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            git_rev: git_rev(),
            ckpt_fs: fs_of(ckpt_root),
            llc: llc(),
            state_mib: state_bytes as f64 / (1u64 << 20) as f64,
            store_sync: std::env::var("PPAR_STORE_SYNC").unwrap_or_else(|_| "unset".into()),
        }
    }
}

/// `(steal, total)` CPU jiffies since boot, from `/proc/stat`.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal ...
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Share of CPU time the hypervisor gave to other guests between two
/// [`cpu_jiffies`] readings: the run's noise estimate.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".into()
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric by
/// name with its unit.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

/// The result file: the result line's content plus the seed, sample
/// counts, notes and the environment.
#[allow(clippy::too_many_arguments)]
pub fn result_file(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    env: &Environment,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> String {
    let rows = metrics
        .iter()
        .map(|m| {
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}, \"samples\": {}, \"note\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit),
                m.samples,
                m.note.map_or("null".into(), json_str)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"workload\": {},\n  \"seed\": {seed},\n  \"seconds\": {},\n  \"trace\": {trace},\n  \
         \"env\": {{\"nproc\": {}, \"git_rev\": {}, \"ckpt_fs\": {}, \"llc\": {}, \"state_mib\": {}, \"PPAR_STORE_SYNC\": {}}},\n  \
         \"correct\": {correct},\n  \"attempted\": {attempted},\n  \"failed\": {failed},\n  \"metrics\": {{\n{rows}\n  }}\n}}\n",
        json_str(workload),
        json_num(seconds),
        env.nproc,
        json_str(&env.git_rev),
        json_str(&env.ckpt_fs),
        json_str(&env.llc),
        json_num(env.state_mib),
        json_str(&env.store_sync),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&xs), 5.0);
        assert_eq!(percentile(&xs, 0.9), 9.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn high_percentiles_need_ten_samples_beyond() {
        assert!(percentile_ok(20, 0.5));
        assert!(!percentile_ok(19, 0.5));
        assert!(percentile_ok(100, 0.9));
        assert!(!percentile_ok(99, 0.9));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(true, 3, 0, &[Metric::new("job_s", "s", 1.25, 3)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"job_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
