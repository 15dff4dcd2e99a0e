//! The cost model of §IV (Definitions 1–4).
//!
//! Task execution time decomposes as
//! `T_exec = t_io + t_render + t_composite`, and because disk I/O runs at
//! hundreds of MB/s while GPU ray casting takes milliseconds, `t_io`
//! dominates whenever a chunk has to be fetched: the paper's simplification
//! `T_exec ≈ t_io + α`. We keep the three terms separate (they are needed
//! for Fig. 2 and for the live service) but the defaults reproduce the
//! paper's magnitudes: seconds of I/O versus milliseconds of rendering.

use crate::time::{SimDuration, SimTime};

/// Cost-model constants. Calibrated so that the Fig. 2 stage breakdown holds:
/// fetching a 512 MB chunk takes seconds while rendering plus compositing
/// takes milliseconds, an I/O-to-render ratio of two to three orders of
/// magnitude.
///
/// ```
/// use vizsched_core::cost::CostParams;
///
/// let cost = CostParams::eight_node_cluster();
/// let chunk = 512u64 << 20;
/// // A cold task pays the disk fetch; a warm one only renders+composites.
/// let cold = cost.task_exec(chunk, false, 4);
/// let warm = cost.task_exec(chunk, true, 4);
/// assert_eq!(cold - warm, cost.io_time(chunk));
/// assert!(cold.as_secs_f64() > 1.0 && warm.as_millis_f64() < 20.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostParams {
    /// Sustained disk (or parallel-FS) read bandwidth per node, bytes/s.
    /// Includes the host-to-GPU upload, which is pipelined with the read.
    pub disk_bw: u64,
    /// Fixed per-task overhead: dispatch message, GPU kernel launch, and
    /// sub-image transmission (`r0`). This term is why the uniform
    /// decomposition (FCFSU) wastes capacity — more tasks per job means
    /// more fixed overhead per frame.
    pub render_fixed: SimDuration,
    /// Ray-casting time per GiB of chunk data (`r1`).
    pub render_per_gib: SimDuration,
    /// Fixed image-compositing cost (`c0`).
    pub composite_fixed: SimDuration,
    /// Additional compositing/gather cost per extra node in the render
    /// group (`c1`). Sub-image exchange volume and the final gather to the
    /// head node grow with the group, which is exactly the
    /// "unnecessary transmission overheads over the network" that §III-C
    /// charges against the uniform decomposition.
    pub composite_per_node: SimDuration,
    /// Host-to-GPU upload bandwidth (PCIe), bytes/s — used only when the
    /// two-tier memory extension is enabled (§VII future work). PCIe 2.0
    /// x16 of the paper's era sustains ~3 GB/s.
    pub upload_bw: u64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            // 150 MB/s: a 512 MB chunk loads in ~3.6 s (Fig. 2 reports I/O
            // of the order of seconds to tens of seconds).
            disk_bw: 150 * (1 << 20),
            render_fixed: SimDuration::from_micros(3_000),
            render_per_gib: SimDuration::from_micros(3_000),
            composite_fixed: SimDuration::from_micros(500),
            composite_per_node: SimDuration::from_micros(250),
            upload_bw: 3 * (1 << 30),
        }
    }
}

impl CostParams {
    /// Calibrated for the paper's first testbed: the 8-node Linux cluster
    /// (Core 2 + GeForce GTX 285, gigabit Ethernet) used by Scenarios 1–2.
    /// Higher per-task fixed overhead reflects the slower interconnect.
    pub fn eight_node_cluster() -> Self {
        CostParams {
            // Local RAID: ~300 MB/s sustained; a 512 MB chunk loads in
            // ~1.7 s and a whole 2 GB dataset in ~7 s (Fig. 2's "several
            // seconds" initialization).
            disk_bw: 300 * (1 << 20),
            render_fixed: SimDuration::from_micros(3_000),
            render_per_gib: SimDuration::from_micros(3_000),
            composite_fixed: SimDuration::from_micros(500),
            // Gigabit Ethernet: per-node gather cost is substantial, which
            // is what caps FCFSU near half the target frame rate (Fig. 4).
            composite_per_node: SimDuration::from_micros(700),
            upload_bw: 3 * (1 << 30),
        }
    }

    /// Calibrated for the paper's second testbed: the 100-node GPU cluster
    /// at Argonne (dual Xeon + dual Quadro FX5600, InfiniBand, parallel FS)
    /// used by Scenarios 3–4. Faster interconnect, lower per-task overhead,
    /// faster storage.
    pub fn anl_gpu_cluster() -> Self {
        CostParams {
            // Parallel file system: ~400 MB/s per node.
            disk_bw: 400 * (1 << 20),
            render_fixed: SimDuration::from_micros(2_300),
            render_per_gib: SimDuration::from_micros(3_000),
            composite_fixed: SimDuration::from_micros(500),
            // InfiniBand: an order of magnitude cheaper per extra node.
            composite_per_node: SimDuration::from_micros(50),
            upload_bw: 3 * (1 << 30),
        }
    }

    /// `t_io`: time to fetch `bytes` from disk into main memory (and on to
    /// the GPU). Zero-byte chunks still cost one microsecond so that event
    /// ordering stays strict.
    pub fn io_time(&self, bytes: u64) -> SimDuration {
        assert!(self.disk_bw > 0, "disk bandwidth must be positive");
        let micros = (bytes as u128 * 1_000_000 / self.disk_bw as u128) as u64;
        SimDuration::from_micros(micros.max(1))
    }

    /// `t_render`: ray-casting time for a chunk of `bytes`.
    pub fn render_time(&self, bytes: u64) -> SimDuration {
        let per_byte = (self.render_per_gib.as_micros() as u128 * bytes as u128) >> 30;
        self.render_fixed + SimDuration::from_micros(per_byte as u64)
    }

    /// `t_composite`: image compositing cost for a render group of
    /// `group` nodes (fixed cost plus a per-extra-node gather term).
    pub fn composite_time(&self, group: u32) -> SimDuration {
        self.composite_fixed + self.composite_per_node * u64::from(group.max(1) - 1)
    }

    /// Full task execution time (Definition 1): I/O (if the chunk is not
    /// cached) plus rendering plus compositing.
    pub fn task_exec(&self, bytes: u64, cached: bool, group: u32) -> SimDuration {
        let io = if cached {
            SimDuration::ZERO
        } else {
            self.io_time(bytes)
        };
        io + self.render_time(bytes) + self.composite_time(group)
    }

    /// The paper's `α`: the non-I/O part of task execution.
    pub fn alpha(&self, bytes: u64, group: u32) -> SimDuration {
        self.render_time(bytes) + self.composite_time(group)
    }

    /// Host→GPU upload time for `bytes` over PCIe (two-tier extension).
    pub fn upload_time(&self, bytes: u64) -> SimDuration {
        assert!(self.upload_bw > 0, "upload bandwidth must be positive");
        let micros = (bytes as u128 * 1_000_000 / self.upload_bw as u128) as u64;
        SimDuration::from_micros(micros.max(1))
    }
}

/// Job-level timing (Definitions 2 and 3), accumulated as tasks start and
/// finish. `JS(i)` is the minimum task start time, `JF(i)` the maximum task
/// finish time, latency is `JF(i) − JI(i)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobTiming {
    /// `JI(i)`: issue time.
    pub issue: SimTime,
    /// `JS(i)`: earliest task start, if any task has started.
    pub start: Option<SimTime>,
    /// `JF(i)`: latest task finish, if all tasks have finished.
    pub finish: Option<SimTime>,
}

impl JobTiming {
    /// Timing for a job issued at `issue`, with nothing started yet.
    pub fn issued_at(issue: SimTime) -> Self {
        JobTiming {
            issue,
            start: None,
            finish: None,
        }
    }

    /// Record a task start: `JS(i) = min TS(i,j,k)`.
    pub fn record_start(&mut self, t: SimTime) {
        self.start = Some(self.start.map_or(t, |s| s.min(t)));
    }

    /// Record the finish of the job's last task: `JF(i) = max TF(i,j,k)`.
    pub fn record_finish(&mut self, t: SimTime) {
        self.finish = Some(self.finish.map_or(t, |f| f.max(t)));
    }

    /// `JExec(i) = JF(i) − JS(i)` (Definition 2); the paper also calls this
    /// the *working time* for batch jobs.
    pub fn execution(&self) -> Option<SimDuration> {
        Some(self.finish? - self.start?)
    }

    /// `Latency(i) = JF(i) − JI(i)` (Definition 3): the delay noticed at the
    /// user's end.
    pub fn latency(&self) -> Option<SimDuration> {
        Some(self.finish? - self.issue)
    }
}

/// Definition 4: the frame rate of a set of interactive jobs belonging to one
/// continuous user action, `(n−1) / Σ_{i=1..n−1} (JF(i+1) − JF(i))`.
///
/// `finish_times` must hold the jobs' `JF` values in job issue order; the
/// function sorts defensively since out-of-order completion is possible.
/// Returns `None` for fewer than two finished jobs (the paper's formula is
/// undefined there).
pub fn framerate(finish_times: &[SimTime]) -> Option<f64> {
    if finish_times.len() < 2 {
        return None;
    }
    let mut sorted = finish_times.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    let span = *sorted.last().unwrap() - sorted[0];
    if span.is_zero() {
        // All frames finished in the same microsecond; report the resolution
        // limit rather than dividing by zero.
        return Some((n as f64 - 1.0) * 1e6);
    }
    Some((n as f64 - 1.0) / span.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: u64 = 1 << 20;

    #[test]
    fn io_dominates_rendering_by_orders_of_magnitude() {
        let cost = CostParams::default();
        let io = cost.io_time(512 * MIB);
        let alpha = cost.alpha(512 * MIB, 8);
        // Fig. 2: I/O is seconds, render+composite is milliseconds.
        assert!(io.as_secs_f64() > 1.0, "io = {io}");
        assert!(alpha.as_millis_f64() < 50.0, "alpha = {alpha}");
        assert!(
            io.as_micros() > 100 * alpha.as_micros(),
            "I/O should dominate by >= 2 orders of magnitude: io={io} alpha={alpha}"
        );
    }

    #[test]
    fn io_time_scales_linearly() {
        let cost = CostParams::default();
        let one = cost.io_time(150 * MIB);
        let two = cost.io_time(300 * MIB);
        assert_eq!(two.as_micros(), one.as_micros() * 2);
        assert_eq!(cost.io_time(150 * (1 << 20)), SimDuration::from_secs(1));
    }

    #[test]
    fn io_time_never_zero() {
        let cost = CostParams::default();
        assert!(cost.io_time(0) > SimDuration::ZERO);
        assert!(cost.io_time(1) > SimDuration::ZERO);
    }

    #[test]
    fn composite_grows_linearly_with_group_size() {
        let cost = CostParams::default();
        let g1 = cost.composite_time(1);
        let g2 = cost.composite_time(2);
        let g8 = cost.composite_time(8);
        assert_eq!(g1, cost.composite_fixed);
        assert_eq!(g2 - g1, cost.composite_per_node);
        assert_eq!(g8 - g1, cost.composite_per_node * 7);
        // Degenerate group of zero treated as one.
        assert_eq!(cost.composite_time(0), g1);
    }

    #[test]
    fn cached_task_skips_io() {
        let cost = CostParams::default();
        let warm = cost.task_exec(512 * MIB, true, 4);
        let cold = cost.task_exec(512 * MIB, false, 4);
        assert_eq!(cold - warm, cost.io_time(512 * MIB));
        assert_eq!(warm, cost.alpha(512 * MIB, 4));
    }

    #[test]
    fn job_timing_tracks_min_start_max_finish() {
        let mut t = JobTiming::issued_at(SimTime::from_millis(10));
        t.record_start(SimTime::from_millis(30));
        t.record_start(SimTime::from_millis(20));
        t.record_finish(SimTime::from_millis(50));
        t.record_finish(SimTime::from_millis(80));
        assert_eq!(t.start, Some(SimTime::from_millis(20)));
        assert_eq!(t.finish, Some(SimTime::from_millis(80)));
        assert_eq!(t.execution(), Some(SimDuration::from_millis(60)));
        assert_eq!(t.latency(), Some(SimDuration::from_millis(70)));
    }

    #[test]
    fn framerate_matches_definition_four() {
        // Frames finishing every 30 ms -> 33.33 fps.
        let finishes: Vec<SimTime> = (0..100).map(|i| SimTime::from_millis(30 * i)).collect();
        let fps = framerate(&finishes).unwrap();
        assert!((fps - 33.333).abs() < 0.01, "fps = {fps}");
    }

    #[test]
    fn framerate_undefined_for_single_frame() {
        assert!(framerate(&[]).is_none());
        assert!(framerate(&[SimTime::from_secs(1)]).is_none());
    }

    #[test]
    fn framerate_handles_unordered_completions() {
        let fps = framerate(&[
            SimTime::from_millis(60),
            SimTime::from_millis(0),
            SimTime::from_millis(30),
        ])
        .unwrap();
        assert!((fps - 33.333).abs() < 0.01, "fps = {fps}");
    }
}
