//! I/O accounting counters.

use serde::{Deserialize, Serialize};

/// Cumulative I/O statistics for a [`SimDisk`](crate::disk::SimDisk).
///
/// `*_ms` fields partition the simulated clock: their sum equals
/// [`SimDisk::clock_ms`](crate::disk::SimDisk::clock_ms) (modulo floating
/// point rounding).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct IoStats {
    /// Number of page reads that reached the device.
    pub page_reads: u64,
    /// Number of page writes that reached the device.
    pub page_writes: u64,
    /// Discontiguous head moves (any non-zero-distance reposition).
    pub seeks: u64,
    /// Bytes transferred by reads.
    pub bytes_read: u64,
    /// Bytes transferred by writes.
    pub bytes_written: u64,
    /// Number of file-open charges (`Cost_init`).
    pub file_opens: u64,
    /// Simulated ms spent moving the head.
    pub seek_ms: f64,
    /// Simulated ms spent transferring reads.
    pub read_ms: f64,
    /// Simulated ms spent transferring writes.
    pub write_ms: f64,
    /// Simulated ms spent opening files.
    pub init_ms: f64,
}

impl IoStats {
    /// Total simulated milliseconds accounted by these counters.
    pub fn total_ms(&self) -> f64 {
        self.seek_ms + self.read_ms + self.write_ms + self.init_ms
    }

    /// Component-wise difference (`self - earlier`); used to attribute costs
    /// to a single query by snapshotting before and after.
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            page_reads: self.page_reads - earlier.page_reads,
            page_writes: self.page_writes - earlier.page_writes,
            seeks: self.seeks - earlier.seeks,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            file_opens: self.file_opens - earlier.file_opens,
            seek_ms: self.seek_ms - earlier.seek_ms,
            read_ms: self.read_ms - earlier.read_ms,
            write_ms: self.write_ms - earlier.write_ms,
            init_ms: self.init_ms - earlier.init_ms,
        }
    }

    /// Component-wise sum (`self + other`); used to total the attributed
    /// windows of several devices, e.g. the shards of one query.
    pub fn merged(&self, other: &IoStats) -> IoStats {
        IoStats {
            page_reads: self.page_reads + other.page_reads,
            page_writes: self.page_writes + other.page_writes,
            seeks: self.seeks + other.seeks,
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_written: self.bytes_written + other.bytes_written,
            file_opens: self.file_opens + other.file_opens,
            seek_ms: self.seek_ms + other.seek_ms,
            read_ms: self.read_ms + other.read_ms,
            write_ms: self.write_ms + other.write_ms,
            init_ms: self.init_ms + other.init_ms,
        }
    }
}

impl std::fmt::Display for IoStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "reads={} writes={} seeks={} opens={} | seek {:.1}ms read {:.1}ms write {:.1}ms init {:.1}ms | total {:.1}ms",
            self.page_reads,
            self.page_writes,
            self.seeks,
            self.file_opens,
            self.seek_ms,
            self.read_ms,
            self.write_ms,
            self.init_ms,
            self.total_ms()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts_componentwise() {
        let a = IoStats {
            page_reads: 10,
            seeks: 3,
            read_ms: 5.0,
            ..Default::default()
        };
        let b = IoStats {
            page_reads: 4,
            seeks: 1,
            read_ms: 2.0,
            ..Default::default()
        };
        let d = a.since(&b);
        assert_eq!(d.page_reads, 6);
        assert_eq!(d.seeks, 2);
        assert!((d.read_ms - 3.0).abs() < 1e-12);
    }

    #[test]
    fn total_is_sum_of_parts() {
        let s = IoStats {
            seek_ms: 1.0,
            read_ms: 2.0,
            write_ms: 3.0,
            init_ms: 4.0,
            ..Default::default()
        };
        assert!((s.total_ms() - 10.0).abs() < 1e-12);
    }
}
