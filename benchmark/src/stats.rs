//! Order statistics, the peak-RSS reader and the FNV digest.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest sample
/// such that at least `q` of the samples are ≤ it. `None` on an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of a sample set (mean of the two middle samples for an even
/// count). `None` on an empty slice. Sorts a copy.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Arithmetic mean; `None` on an empty slice.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    Some(samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Sort nanosecond samples in place and return their nearest-rank
/// percentile in the given unit (`per_unit` nanoseconds per unit).
pub fn sorted_percentile_in(samples_ns: &mut [u64], q: f64, per_unit: f64) -> Option<f64> {
    samples_ns.sort_unstable();
    percentile(samples_ns, q).map(|ns| ns as f64 / per_unit)
}

/// `VmHWM` (peak resident set) in MiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let amount: f64 = fields.next()?.parse().ok()?;
    match fields.next()? {
        "kB" => Some(amount / 1024.0),
        _ => None,
    }
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    parse_vm_hwm_mib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// 64-bit FNV-1a over a byte stream, fed incrementally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold `bytes` into the digest.
    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let odd = [10, 20, 30, 40, 50];
        assert_eq!(percentile(&odd, 0.5), Some(30));
        assert_eq!(percentile(&odd, 0.0), Some(10));
        assert_eq!(percentile(&odd, 1.0), Some(50));
        assert_eq!(percentile(&odd, 0.99), Some(50));
        let even = [10, 20, 30, 40];
        assert_eq!(percentile(&even, 0.5), Some(20));
        assert_eq!(percentile(&even, 0.75), Some(30));
        assert_eq!(percentile(&even, 0.76), Some(40));
        assert_eq!(percentile(&[7], 0.5), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[5.0]), Some(5.0));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn sorted_percentile_converts_units() {
        let mut ns = vec![3_000, 1_000, 2_000];
        assert_eq!(sorted_percentile_in(&mut ns, 0.5, 1_000.0), Some(2.0));
        assert_eq!(sorted_percentile_in(&mut [], 0.5, 1_000.0), None);
    }

    #[test]
    fn vm_hwm_is_parsed_from_proc_status() {
        let status =
            "Name:\tdn-benchmark\nVmPeak:\t  999999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(20.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tx\nVmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t12 pages\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\n"), None);
        assert!(peak_rss_mib().is_some_and(|mib| mib > 0.0));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(Fnv::default().value(), 0xcbf2_9ce4_8422_2325);
        let mut one = Fnv::default();
        one.feed(b"a");
        assert_eq!(one.value(), 0xaf63_dc4c_8601_ec8c);
        let mut split = Fnv::default();
        split.feed(b"foo");
        split.feed(b"bar");
        let mut whole = Fnv::default();
        whole.feed(b"foobar");
        assert_eq!(split, whole);
        assert_eq!(whole.value(), 0x8594_4171_f739_67e8);
    }
}
