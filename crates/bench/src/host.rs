//! Host introspection for the Table II reproduction: the paper reports
//! its CPU test-bench (`gpu_sim::CpuSpec::xeon_e5_2640`); we print it
//! next to the machine the CPU baselines actually ran on.

/// Best-effort description of the current host. Only the logical CPU
/// count is knowable here: `std::thread::available_parallelism` cannot
/// see SMT topology, so no physical-core figure is claimed.
pub fn current_host() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!("current host | {cores} logical cores | (CPU baselines measured here)")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_row_renders() {
        let s = current_host();
        assert!(s.contains("cores"));
    }
}
