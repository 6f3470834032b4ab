//! Host facts printed beside every result, and the process high-water
//! mark.

/// The machine a result was measured on.
#[derive(Clone, Debug)]
pub struct HostFacts {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Size of the unified level-2 cache of CPU 0, as sysfs spells it.
    pub l2: String,
    /// Size of the level-3 cache of CPU 0, as sysfs spells it.
    pub l3: String,
}

/// Reads the host facts; anything the kernel does not expose reads as
/// `"unknown"`.
pub fn host_facts() -> HostFacts {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    HostFacts {
        nproc: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        cpu_model,
        l2: cache_size(2),
        l3: cache_size(3),
    }
}

fn cache_size(level: u32) -> String {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    (0..8)
        .find_map(|index| {
            let read = |file: &str| {
                std::fs::read_to_string(format!("{base}/index{index}/{file}"))
                    .ok()
                    .map(|s| s.trim().to_string())
            };
            let kind = read("type")?;
            (read("level")? == level.to_string() && kind != "Instruction")
                .then(|| read("size"))
                .flatten()
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Cumulative CPU time of the whole machine, from the first line of
/// `/proc/stat`: `(stolen by the hypervisor, total)`, in clock ticks.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// The share of CPU time stolen by the hypervisor between two
/// [`cpu_ticks`] readings: on a shared host, the usual reason two runs of
/// the same code disagree.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / total as f64
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn high_water_mark_is_readable() {
        let mb = super::peak_rss_mb().expect("Linux exposes VmHWM");
        assert!(mb > 0.0);
        assert!(super::host_facts().nproc >= 1);
        let ticks = super::cpu_ticks().expect("Linux exposes /proc/stat");
        assert!(ticks.1 >= ticks.0);
        assert_eq!(super::steal_share((1, 10), (3, 30)), 0.1);
        assert_eq!(super::steal_share(ticks, ticks), 0.0);
    }
}
