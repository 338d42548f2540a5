//! RAID0 striping over k devices.
//!
//! For S-PPCP the paper builds a RAID0 array with the Linux `md` driver so
//! that Step 1 and Step 7 of different sub-tasks land on different spindles.
//! [`Raid0`] reproduces that: a logical request is split at stripe-unit
//! boundaries, each member books its share on its own timeline, so the
//! members serve their shares concurrently, and the logical request
//! completes when the latest member's share does.

use crate::device::{check_bounds, BlockDevice};
use crate::stats::DeviceStats;
use crate::DeviceRef;
use bytes::Bytes;
use std::io;
use std::time::{Duration, Instant};

/// A RAID0 (striping, no redundancy) array of homogeneous devices.
pub struct Raid0 {
    name: String,
    devices: Vec<DeviceRef>,
    stripe: u64,
    stats: DeviceStats,
}

impl std::fmt::Debug for Raid0 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Raid0")
            .field("name", &self.name)
            .field("devices", &self.devices.len())
            .field("stripe", &self.stripe)
            .finish()
    }
}

/// One contiguous slice of a logical request mapped onto a member device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Segment {
    device: usize,
    dev_offset: u64,
    /// Offset of this segment within the logical request buffer.
    buf_offset: usize,
    len: usize,
}

impl Raid0 {
    /// Assembles an array. `stripe` is the stripe-unit size in bytes
    /// (the `md` chunk size; 64 KiB is a common default).
    ///
    /// # Panics
    /// Panics if `devices` is empty or `stripe` is zero.
    pub fn new(name: impl Into<String>, devices: Vec<DeviceRef>, stripe: u64) -> Self {
        assert!(!devices.is_empty(), "RAID0 needs at least one device");
        assert!(stripe > 0, "stripe unit must be positive");
        Raid0 {
            name: name.into(),
            devices,
            stripe,
            stats: DeviceStats::new(),
        }
    }

    /// Number of member devices.
    pub fn width(&self) -> usize {
        self.devices.len()
    }

    /// Member devices (for per-spindle stats).
    pub fn members(&self) -> &[DeviceRef] {
        &self.devices
    }

    /// Maps `[offset, offset+len)` in the logical address space onto
    /// per-device segments, in logical order. The range must be in bounds.
    fn map(&self, offset: u64, len: usize) -> Vec<Segment> {
        let k = self.devices.len() as u64;
        let mut segments = Vec::new();
        let mut cur = offset;
        let end = offset + len as u64;
        while cur < end {
            let stripe_idx = cur / self.stripe;
            let within = cur % self.stripe;
            let n = ((self.stripe - within).min(end - cur)) as usize;
            segments.push(Segment {
                device: (stripe_idx % k) as usize,
                dev_offset: (stripe_idx / k) * self.stripe + within,
                buf_offset: (cur - offset) as usize,
                len: n,
            });
            cur += n as u64;
        }
        segments
    }

    /// Per-device I/O plan: for one contiguous logical range, each
    /// device's chunks form a single dense span (RAID0's defining
    /// property), so the array issues **one request per member** and
    /// scatters/gathers the buffer at chunk granularity — the block
    /// layer's request merging, without which concurrent lanes (S-PPCP)
    /// would interleave stripe-sized requests into head-thrashing on
    /// seek-bound members.
    fn device_plan(&self, offset: u64, len: usize) -> Vec<MemberSpan> {
        let segments = self.map(offset, len);
        let mut plan = Vec::new();
        for device in 0..self.devices.len() {
            let chunks: Vec<Segment> = segments
                .iter()
                .filter(|s| s.device == device)
                .copied()
                .collect();
            let (Some(start), Some(end)) = (
                chunks.iter().map(|c| c.dev_offset).min(),
                chunks.iter().map(|c| c.dev_offset + c.len as u64).max(),
            ) else {
                continue;
            };
            debug_assert_eq!(
                (end - start) as usize,
                chunks.iter().map(|c| c.len).sum::<usize>(),
                "device span must be dense"
            );
            plan.push(MemberSpan {
                device,
                start,
                len: (end - start) as usize,
                chunks,
            });
        }
        plan
    }
}

/// One member's share of a logical request: a dense span on the member,
/// and the chunks that scatter it into (or gather it from) the buffer.
struct MemberSpan {
    device: usize,
    start: u64,
    len: usize,
    chunks: Vec<Segment>,
}

impl MemberSpan {
    /// The byte range of `chunk` within this span.
    fn within(&self, chunk: &Segment) -> std::ops::Range<usize> {
        let s0 = (chunk.dev_offset - self.start) as usize;
        s0..s0 + chunk.len
    }
}

impl BlockDevice for Raid0 {
    /// Books each member's span and completes with the latest of them. The
    /// array's busy time is that span, from arrival to the latest member's
    /// completion.
    fn submit_read(&self, offset: u64, len: usize) -> io::Result<(Bytes, Instant)> {
        check_bounds(&self.name, self.capacity(), offset, len)?;
        let arrival = Instant::now();
        let mut done = arrival;
        let mut buf = vec![0u8; len];
        for span in self.device_plan(offset, len) {
            let (data, at) = self.devices[span.device].submit_read(span.start, span.len)?;
            done = done.max(at);
            for c in &span.chunks {
                buf[c.buf_offset..c.buf_offset + c.len].copy_from_slice(&data[span.within(c)]);
            }
        }
        self.stats
            .record_read(len as u64, done.duration_since(arrival), Duration::ZERO);
        Ok((Bytes::from(buf), done))
    }

    fn submit_write(&self, offset: u64, data: &[u8]) -> io::Result<Instant> {
        check_bounds(&self.name, self.capacity(), offset, data.len())?;
        let arrival = Instant::now();
        let mut done = arrival;
        for span in self.device_plan(offset, data.len()) {
            let mut gathered = vec![0u8; span.len];
            for c in &span.chunks {
                gathered[span.within(c)].copy_from_slice(&data[c.buf_offset..c.buf_offset + c.len]);
            }
            done = done.max(self.devices[span.device].submit_write(span.start, &gathered)?);
        }
        self.stats.record_write(
            data.len() as u64,
            done.duration_since(arrival),
            Duration::ZERO,
        );
        Ok(done)
    }

    fn capacity(&self) -> u64 {
        let min = self.devices.iter().map(|d| d.capacity()).min().unwrap_or(0);
        min * self.devices.len() as u64
    }

    fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn model_name(&self) -> &'static str {
        "raid0"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SimDevice;
    use crate::model::HddModel;
    use std::sync::Arc;

    fn mem_array(k: usize, stripe: u64) -> Raid0 {
        let devices: Vec<DeviceRef> = (0..k)
            .map(|_| Arc::new(SimDevice::mem(1 << 24)) as DeviceRef)
            .collect();
        Raid0::new("raid0", devices, stripe)
    }

    #[test]
    fn roundtrip_across_stripes() {
        let raid = mem_array(4, 4096);
        let data: Vec<u8> = (0..40_000).map(|i| (i % 253) as u8).collect();
        raid.write_at(1000, &data).unwrap();
        let got = raid.read_at(1000, data.len()).unwrap();
        assert_eq!(&got[..], &data[..]);
    }

    #[test]
    fn mapping_distributes_round_robin() {
        let raid = mem_array(3, 1024);
        let segs = raid.map(0, 4096);
        assert_eq!(segs.len(), 4);
        assert_eq!(
            segs.iter().map(|s| s.device).collect::<Vec<_>>(),
            vec![0, 1, 2, 0]
        );
        assert_eq!(segs[3].dev_offset, 1024, "second stripe row on device 0");
    }

    #[test]
    fn mapping_handles_unaligned_requests() {
        let raid = mem_array(2, 1024);
        let segs = raid.map(1500, 1000);
        // [1500,2048) on dev1@476.. wait — stripe 1 maps to device 1.
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].device, 1);
        assert_eq!(segs[0].len, 548);
        assert_eq!(segs[1].device, 0);
        assert_eq!(segs[1].dev_offset, 1024);
        assert_eq!(segs[1].len, 452);
        let total: usize = segs.iter().map(|s| s.len).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn capacity_is_min_times_width() {
        let raid = mem_array(4, 4096);
        assert_eq!(raid.capacity(), (1u64 << 24) * 4);
    }

    #[test]
    fn out_of_bounds_is_rejected() {
        let raid = mem_array(2, 4096);
        let cap = raid.capacity();
        for (offset, len) in [(u64::MAX - 5, 16), (cap - 8, 16), (cap, 1)] {
            let read = raid.read_at(offset, len).unwrap_err();
            assert_eq!(
                read.kind(),
                io::ErrorKind::InvalidInput,
                "read [{offset}, +{len})"
            );
            let write = raid.write_at(offset, &vec![0u8; len]).unwrap_err();
            assert_eq!(
                write.kind(),
                io::ErrorKind::InvalidInput,
                "write [{offset}, +{len})"
            );
        }
        assert_eq!(
            raid.members()[0].stats().snapshot().read_ops,
            0,
            "no member touched"
        );
        // Exactly at capacity is fine.
        raid.write_at(cap - 16, &[1u8; 16]).unwrap();
    }

    #[test]
    fn the_array_completes_with_its_latest_member() {
        // Two members with different seeks: a request striped over both
        // completes when the slower member's share does (the max of their
        // service times, not the sum), and the array is busy for that span.
        let mk = |n: &str, seek_secs| {
            let model = HddModel {
                min_seek: Duration::from_secs(seek_secs),
                max_seek: Duration::from_secs(seek_secs),
                ..HddModel::default()
            };
            Arc::new(SimDevice::new(n, model, 1 << 30, 1.0)) as DeviceRef
        };
        let raid = Raid0::new("r", vec![mk("a", 2), mk("b", 3)], 512 * 1024);
        let before = Instant::now();
        // 256 MiB in: each member's share is 128 MiB from its head.
        let (_, done) = raid.submit_read(1 << 28, 1 << 20).unwrap();
        let after = Instant::now();
        let slowest = raid
            .members()
            .iter()
            .map(|d| d.stats().busy())
            .max()
            .unwrap();
        let total: Duration = raid.members().iter().map(|d| d.stats().busy()).sum();
        assert!(
            total > slowest + Duration::from_secs(1),
            "both members served a share"
        );
        assert!(
            done >= before + slowest,
            "{:?} early",
            before + slowest - done
        );
        assert!(
            done <= after + slowest,
            "{:?} late",
            done - (after + slowest)
        );
        let busy = raid.stats().busy();
        assert!(
            busy >= slowest && busy <= slowest + (after - before),
            "array busy {busy:?}"
        );
    }
}
