//! What the benchmark reads about its own processes and the machine:
//! page faults and peak memory from `/proc`, and the fingerprint every
//! result records.

use std::process::Command;

/// Minor page faults of this process so far (field 10 of
/// `/proc/self/stat`), the allocation proxy: a fresh heap block the
/// size of a pack buffer or workspace faults in page by page.
pub fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after
    // its closing parenthesis, at field 3.
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(7))
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

fn vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The glibc mmap threshold of the memory and fault-count children.
/// Pinned, every allocation of 64 KiB or more is a fresh mapping that
/// is unmapped when freed, so resident memory follows live memory. With
/// glibc's default, adaptive threshold it follows whatever freed blocks
/// the allocator happens to keep, which differs from run to run.
pub const MMAP_THRESHOLD: (&str, &str) = ("MALLOC_MMAP_THRESHOLD_", "65536");

/// Peak resident memory (VmHWM) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").unwrap_or_default()).unwrap_or(0.0)
}

/// Peak resident memory of process `pid`, if it is still alive.
pub fn peak_rss_mb_of(pid: u32) -> Option<f64> {
    vm_hwm_mb(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

/// Restart the VmHWM of process `pid` (this process when `None`) from
/// its current resident size, so a later reading covers only what runs
/// after this call.
pub fn reset_peak_rss(pid: Option<u32>) {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/clear_refs"),
        None => "/proc/self/clear_refs".to_string(),
    };
    if let Err(e) = std::fs::write(&path, "5") {
        eprintln!("could not reset the peak resident size via {path}: {e}");
    }
}

/// Live child processes of this process (the shard workers).
pub fn child_pids() -> Vec<u32> {
    let me = std::process::id();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            std::fs::read_to_string(format!("/proc/{pid}/stat"))
                .ok()
                .and_then(|s| {
                    let rest = s.rsplit_once(')')?.1.to_string();
                    rest.split_whitespace().nth(1)?.parse::<u32>().ok()
                })
                == Some(me)
        })
        .collect()
}

/// Run a short command and return its first output line.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Machine and build facts recorded with every result, as `(key,
/// value)` pairs.
pub fn fingerprint(bandwidth_elems: &[usize]) -> Vec<(&'static str, String)> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |name: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let flags = field("flags");
    let isa: Vec<&str> = ["avx2", "avx512f", "fma"]
        .into_iter()
        .filter(|f| flags.split_whitespace().any(|x| x == *f))
        .collect();
    let caches: Vec<String> = (0..4)
        .filter_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
            let level = read("level")?;
            let kind = read("type")?;
            let size = read("size")?;
            Some(format!(
                "L{}{}={}",
                level.trim(),
                &kind.trim()[..1],
                size.trim()
            ))
        })
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("cpu", field("model name")),
        ("isa", isa.join(",")),
        ("nproc", nproc.to_string()),
        ("caches", caches.join(",")),
        ("rustc", first_line("rustc", &["--version"])),
        (
            "git",
            first_line("git", &["rev-parse", "--short=12", "HEAD"]),
        ),
        (
            "bytes",
            "computed from operand sizes, not measured by counters".to_string(),
        ),
        (
            "bandwidth_probe_elems",
            bandwidth_elems
                .iter()
                .map(|e| e.to_string())
                .collect::<Vec<_>>()
                .join(","),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_live() {
        let before = minor_faults();
        let v = vec![1u8; 64 << 20];
        std::hint::black_box(&v);
        assert!(minor_faults() > before, "touching 64 MB faults pages in");
        assert!(peak_rss_mb() >= 64.0);
    }
}
