//! Facts about the machine and the build that every result records, and
//! the process's peak memory.

use std::fs;

use crate::Args;

/// CPUs this process may run on (what `nproc` prints): the affinity list
/// in `/proc/self/status`, falling back to `available_parallelism`.
pub fn nproc() -> usize {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let list = status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
            count_cpu_list(list.trim())
        })
        .unwrap_or_else(available_parallelism)
        .max(1)
}

/// Counts the CPUs of a kernel CPU list such as `0-3,8,10-11`.
fn count_cpu_list(list: &str) -> Option<usize> {
    let mut n = 0;
    for part in list.split(',').filter(|p| !p.is_empty()) {
        n += match part.split_once('-') {
            Some((a, b)) => {
                b.parse::<usize>()
                    .ok()?
                    .checked_sub(a.parse::<usize>().ok()?)?
                    + 1
            }
            None => {
                part.parse::<usize>().ok()?;
                1
            }
        };
    }
    (n > 0).then_some(n)
}

/// `std::thread::available_parallelism`, 1 when unknown.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Peak resident set size of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout, read from `.git` in the working directory
/// only; `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_string(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// One JSON object naming the machine, toolchain, commit and run
/// parameters a result was measured under.
pub fn provenance_json(args: &Args, threads: usize) -> String {
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"tier\": {}, \
         \"threads\": [1, {threads}], \"nproc\": {}, \"available_parallelism\": {}, \
         \"cpu_model\": {}, \"rustc\": {}, \"git_commit\": {}}}",
        json_string(&args.workload),
        args.seed,
        args.seconds.as_secs(),
        args.trace as u8,
        json_string(crate::tier_of(&args.workload)),
        nproc(),
        available_parallelism(),
        json_string(&cpu_model()),
        json_string(env!("PERFBENCH_RUSTC")),
        json_string(&git_commit()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_count_ranges_and_singles() {
        assert_eq!(count_cpu_list("0-1"), Some(2));
        assert_eq!(count_cpu_list("0-3,8,10-11"), Some(7));
        assert_eq!(count_cpu_list("5"), Some(1));
        assert_eq!(count_cpu_list(""), None);
        assert_eq!(count_cpu_list("3-1"), None);
    }
}
