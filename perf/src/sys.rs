//! Process-level readings from `/proc/self` (Linux).

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`) or a plain count
/// (`Threads`); `None` when the field is absent.
fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Resets the peak-RSS high-water mark to the current resident set, so a
/// later [`peak_rss_kb`] covers only what happened after this call.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS via /proc/self/clear_refs: {e}"))
}

/// Peak resident set since start or the last [`reset_peak_rss`], in kB.
pub fn peak_rss_kb() -> Result<u64, String> {
    status_field("VmHWM").ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Current resident set, in kB.
pub fn rss_kb() -> Result<u64, String> {
    status_field("VmRSS").ok_or_else(|| "no VmRSS in /proc/self/status".to_string())
}

/// Current OS thread count of this process (0 if unreadable).
pub fn threads() -> u64 {
    status_field("Threads").unwrap_or(0)
}

/// CPUs this process may run on.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
