//! RAID0 striping over k devices.
//!
//! For S-PPCP the paper builds a RAID0 array with the Linux `md` driver so
//! that Step 1 and Step 7 of different sub-tasks land on different spindles.
//! [`Raid0`] reproduces that: a logical request is split at stripe-unit
//! boundaries, the per-device segments are serviced concurrently (scoped
//! threads — each segment sleeps on its own device's service lock), and the
//! logical request completes when the slowest segment does.

use crate::device::BlockDevice;
use crate::stats::DeviceStats;
use crate::DeviceRef;
use bytes::Bytes;
use std::io;
use std::time::Instant;

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
    /// per-device segments, in logical order.
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
    fn device_plan(&self, segments: &[Segment]) -> Vec<(usize, u64, usize, Vec<Segment>)> {
        let mut plan: Vec<(usize, u64, usize, Vec<Segment>)> = Vec::new();
        for d in 0..self.devices.len() {
            let chunks: Vec<Segment> = segments
                .iter()
                .filter(|s| s.device == d)
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
            plan.push((d, start, (end - start) as usize, chunks));
        }
        plan
    }

    /// Runs `f` once per member device touched by the plan, concurrently
    /// (each member sleeps on its own service lock).
    #[expect(
        clippy::expect_used,
        reason = "`f` returns its I/O errors; a panic in it is a bug, re-raised here as \
                  `thread::scope` would"
    )]
    fn for_each_device<F>(
        &self,
        plan: &[(usize, u64, usize, Vec<Segment>)],
        f: F,
    ) -> io::Result<()>
    where
        F: Fn(usize, &(usize, u64, usize, Vec<Segment>)) -> io::Result<()> + Sync + Send,
    {
        if plan.len() <= 1 {
            for (i, entry) in plan.iter().enumerate() {
                f(i, entry)?;
            }
            return Ok(());
        }
        let mut result: io::Result<()> = Ok(());
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = plan
                .iter()
                .enumerate()
                .map(|(i, entry)| scope.spawn(move || f(i, entry)))
                .collect();
            for h in handles {
                let r = crate::blocking::wait("thread join", || h.join())
                    .expect("raid worker panicked");
                if r.is_err() && result.is_ok() {
                    result = r;
                }
            }
        });
        result
    }
}


impl BlockDevice for Raid0 {
    #[expect(
        clippy::expect_used,
        reason = "`for_each_device` returned `Ok`, so every member's closure stored its span"
    )]
    fn read_at(&self, offset: u64, len: usize) -> io::Result<Bytes> {
        let segments = self.map(offset, len);
        let plan = self.device_plan(&segments);
        let parts: Vec<parking_lot::Mutex<Option<Bytes>>> =
            plan.iter().map(|_| parking_lot::Mutex::new(None)).collect();
        let t0 = Instant::now();
        self.for_each_device(&plan, |i, (d, start, span_len, _)| {
            let data = self.devices[*d].read_at(*start, *span_len)?;
            *parts[i].lock() = Some(data);
            Ok(())
        })?;
        let mut buf = vec![0u8; len];
        for ((_, start, _, chunks), part) in plan.iter().zip(&parts) {
            let span = part.lock().take().expect("span read completed");
            for c in chunks {
                let s0 = (c.dev_offset - start) as usize;
                buf[c.buf_offset..c.buf_offset + c.len]
                    .copy_from_slice(&span[s0..s0 + c.len]);
            }
        }
        self.stats
            .record_read(len as u64, t0.elapsed(), std::time::Duration::ZERO);
        Ok(Bytes::from(buf))
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        let segments = self.map(offset, data.len());
        let plan = self.device_plan(&segments);
        // Gather each member's chunks into one dense span buffer.
        let spans: Vec<Vec<u8>> = plan
            .iter()
            .map(|(_, start, span_len, chunks)| {
                let mut span = vec![0u8; *span_len];
                for c in chunks {
                    let s0 = (c.dev_offset - start) as usize;
                    span[s0..s0 + c.len]
                        .copy_from_slice(&data[c.buf_offset..c.buf_offset + c.len]);
                }
                span
            })
            .collect();
        let t0 = Instant::now();
        self.for_each_device(&plan, |i, (d, start, _, _)| {
            self.devices[*d].write_at(*start, &spans[i])
        })?;
        self.stats
            .record_write(data.len() as u64, t0.elapsed(), std::time::Duration::ZERO);
        Ok(())
    }

    fn capacity(&self) -> u64 {
        let min = self
            .devices
            .iter()
            .map(|d| d.capacity())
            .min()
            .unwrap_or(0);
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
    fn parallel_stripes_overlap_their_sleeps() {
        // Two HDD-modeled members at real time: a 2-stripe read should take
        // about one stripe's time, not two.
        let mk = |n: &str| {
            Arc::new(SimDevice::new(
                n,
                HddModel {
                    min_seek: std::time::Duration::from_millis(20),
                    max_seek: std::time::Duration::from_millis(20),
                    ..HddModel::default()
                },
                1 << 30,
                1.0,
            )) as DeviceRef
        };
        let raid = Raid0::new("r", vec![mk("a"), mk("b")], 512 * 1024);
        // 1 MiB = one stripe per member: each member sleeps ~25 ms (a
        // 20 ms seek dominates) while the data handled stays small, so
        // overlap must show over thread-spawn and copy overhead.
        // Wall-clock timing on a noisy host: accept the best of three.
        let mut best_ratio = f64::INFINITY;
        for attempt in 0..3 {
            let before: std::time::Duration =
                raid.members().iter().map(|d| d.stats().busy()).sum();
            let t0 = Instant::now();
            raid.read_at((attempt as u64) * (8 << 20), 1 << 20).unwrap();
            let wall = t0.elapsed();
            let serial: std::time::Duration = raid
                .members()
                .iter()
                .map(|d| d.stats().busy())
                .sum::<std::time::Duration>()
                - before;
            best_ratio = best_ratio.min(wall.as_secs_f64() / serial.as_secs_f64());
        }
        // Without overlap, wall ≥ serial (ratio ≥ 1.0 plus sleep
        // overshoot); any ratio below 1 proves the stripes overlapped.
        // 0.95 leaves margin for vCPU-steal-inflated sleeps.
        assert!(
            best_ratio < 0.95,
            "parallel stripes never overlapped: best wall/serial = {best_ratio:.2}"
        );
    }
}
