//! The stream timeline: turns a list of per-stream operations with modelled
//! durations into a device schedule with overlap and resource sharing.
//!
//! Semantics (mirroring CUDA):
//!
//! * operations on one stream execute in enqueue order;
//! * operations on different streams may overlap;
//! * at most `max_concurrent_kernels` kernels run at once (GK110: 32);
//! * concurrently running *device* operations share the device evenly —
//!   two overlapped memory-bound kernels make no aggregate progress gain,
//!   which keeps the async-layout experiment honest: its win must come
//!   from hiding *latency/under-occupancy*, not from imaginary bandwidth;
//! * PCIe transfers use the copy engines and overlap device work freely,
//!   sharing only with other transfers.
//!
//! The schedule is computed by a deterministic event-driven simulation
//! over "work remaining" quantities.
//!
//! Host-side parallelism never leaks in: launches record ops in enqueue
//! order regardless of how many pool threads executed their blocks (see
//! `crate::device` for the contract), [`merge_op_groups`] interleaves
//! per-worker recordings by position rather than wall-clock arrival, and
//! the scheduler itself is a pure function of the op list. A timeline is
//! therefore bit-identical across `CUSFFT_HOST_THREADS` settings.

/// Identifies a stream. Stream 0 is the default stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(pub u32);

/// Which engine an operation occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// SMs + DRAM: kernels.
    Device,
    /// Copy engine: host↔device transfers.
    Pcie,
    /// Host-side waits (retry backoff, watchdog recovery): occupy only
    /// their own stream — no device share, no kernel-concurrency slot, no
    /// copy engine. Any number may run concurrently.
    Host,
}

/// An operation enqueued on a stream.
#[derive(Debug, Clone)]
pub struct Op {
    /// Monotonic id (enqueue order, used for FIFO arbitration).
    pub id: usize,
    /// Stream the op belongs to.
    pub stream: StreamId,
    /// Engine class.
    pub engine: Engine,
    /// Exclusive-use duration in seconds (from the cost model).
    pub duration: f64,
    /// Label for reports.
    pub label: String,
    /// Cross-stream dependencies (CUDA events): op ids that must complete
    /// before this op may start.
    pub wait_for: Vec<usize>,
    /// Opaque attribution tag stamped by the enqueuing layer (0 = untagged).
    /// The simulator never interprets it; telemetry consumers decode it to
    /// attach ops to spans. Survives [`merge_op_groups`] untouched.
    pub tag: u64,
}

impl Op {
    /// Convenience constructor with no cross-stream dependencies.
    pub fn new(id: usize, stream: StreamId, engine: Engine, duration: f64, label: String) -> Self {
        Op {
            id,
            stream,
            engine,
            duration,
            label,
            wait_for: Vec::new(),
            tag: 0,
        }
    }
}

/// Scheduled times for one op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpSchedule {
    /// Start time (seconds from timeline origin).
    pub start: f64,
    /// End time.
    pub end: f64,
}

/// Full schedule: per-op times plus the makespan.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Times indexed like the input ops.
    pub ops: Vec<OpSchedule>,
    /// Completion time of the last op.
    pub makespan: f64,
}

/// Computes the schedule for `ops` given the device's kernel-concurrency
/// cap. `ops` must be sorted by `id` (enqueue order) — they are, because
/// the device appends as it launches.
pub fn schedule(ops: &[Op], max_concurrent_kernels: u32) -> Schedule {
    let n = ops.len();
    let mut remaining: Vec<f64> = ops.iter().map(|o| o.duration.max(0.0)).collect();
    let mut sched = vec![
        OpSchedule {
            start: f64::NAN,
            end: f64::NAN,
        };
        n
    ];
    let mut done = vec![false; n];
    let mut t = 0.0f64;
    let mut n_done = 0;

    while n_done < n {
        // Head-of-line op per stream: the earliest unfinished op of each
        // stream is eligible — provided its event dependencies are done.
        // A head blocked on an event still blocks everything behind it
        // (stream FIFO order).
        let mut seen_stream: Vec<StreamId> = Vec::new();
        let mut eligible: Vec<usize> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            if done[i] {
                continue;
            }
            if seen_stream.contains(&op.stream) {
                continue;
            }
            seen_stream.push(op.stream);
            if op.wait_for.iter().all(|&d| done.get(d).copied().unwrap_or(true)) {
                eligible.push(i);
            }
        }
        if eligible.is_empty() {
            // All heads are event-blocked on ops that are themselves
            // behind those heads — a deadlock the device API prevents;
            // fail loudly rather than spin.
            panic!("timeline deadlock: circular event dependencies");
        }

        // FIFO cap on concurrent kernels; the copy engine is strictly
        // serial (one transfer at a time, in enqueue order), matching the
        // single DMA engine per direction on real parts.
        let mut active: Vec<usize> = Vec::new();
        let mut kernels = 0u32;
        let mut copy_engine_busy = false;
        for &i in &eligible {
            match ops[i].engine {
                Engine::Device => {
                    if kernels < max_concurrent_kernels {
                        kernels += 1;
                        active.push(i);
                    }
                }
                Engine::Pcie => {
                    if !copy_engine_busy {
                        copy_engine_busy = true;
                        active.push(i);
                    }
                }
                // Host waits contend for nothing.
                Engine::Host => active.push(i),
            }
        }
        debug_assert!(!active.is_empty(), "deadlock in timeline scheduling");

        let device_share = active
            .iter()
            .filter(|&&i| ops[i].engine == Engine::Device)
            .count()
            .max(1) as f64;
        // Copy engine is exclusive: at most one active transfer.
        let pcie_share = 1.0;

        // Progress rate of each active op and time to next completion.
        let mut dt = f64::INFINITY;
        for &i in &active {
            if sched[i].start.is_nan() {
                sched[i].start = t;
            }
            let share = match ops[i].engine {
                Engine::Device => device_share,
                Engine::Pcie => pcie_share,
                Engine::Host => 1.0,
            };
            let finish_in = remaining[i] * share;
            if finish_in < dt {
                dt = finish_in;
            }
        }
        // Zero-duration ops complete instantly; dt may be 0, which is fine.
        for &i in &active {
            let share = match ops[i].engine {
                Engine::Device => device_share,
                Engine::Pcie => pcie_share,
                Engine::Host => 1.0,
            };
            remaining[i] -= dt / share;
            if remaining[i] <= 1e-18 {
                remaining[i] = 0.0;
                done[i] = true;
                n_done += 1;
                sched[i].end = t + dt;
            }
        }
        t += dt;
    }

    Schedule {
        makespan: t,
        ops: sched,
    }
}

/// Deterministically merges per-worker op lists into one timeline.
///
/// Each group is the ops one worker (or request context) recorded on its
/// own private device: ids contiguous from 0, streams numbered locally.
/// The merge
///
/// * remaps every `(group, local stream)` to a globally unique stream, so
///   two workers' default streams do not serialise against each other;
/// * renumbers op ids in a round-robin interleave of the groups (all the
///   groups' first ops, then all their second ops, …), modelling
///   concurrent submission fairly and — crucially — *independently of
///   host-thread scheduling*, so a multi-threaded serving run always
///   produces the same merged timeline;
/// * rewrites `wait_for` event dependencies to the renumbered ids.
pub fn merge_op_groups(groups: &[Vec<Op>]) -> Vec<Op> {
    use std::collections::HashMap;

    // Round-robin interleave: (local id, group index) lexicographic.
    let mut slots: Vec<(usize, usize)> = Vec::new();
    for (g, ops) in groups.iter().enumerate() {
        for (i, op) in ops.iter().enumerate() {
            debug_assert_eq!(op.id, i, "group ops must have contiguous local ids");
            slots.push((i, g));
        }
    }
    slots.sort_unstable();

    // New id for each (group, local id).
    let mut id_map: Vec<HashMap<usize, usize>> = vec![HashMap::new(); groups.len()];
    for (new_id, &(local, g)) in slots.iter().enumerate() {
        id_map[g].insert(local, new_id);
    }

    let mut stream_map: HashMap<(usize, StreamId), StreamId> = HashMap::new();
    let mut next_stream = 0u32;
    let mut merged = Vec::with_capacity(slots.len());
    for &(local, g) in &slots {
        let src = &groups[g][local];
        let stream = *stream_map.entry((g, src.stream)).or_insert_with(|| {
            let s = StreamId(next_stream);
            next_stream += 1;
            s
        });
        let mut op = src.clone();
        op.id = id_map[g][&local];
        op.stream = stream;
        op.wait_for = src.wait_for.iter().map(|d| id_map[g][d]).collect();
        merged.push(op);
    }
    merged
}

/// Busy accounting for one stream of a computed [`Schedule`].
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOccupancy {
    /// The stream.
    pub stream: StreamId,
    /// Ops that ran on it.
    pub ops: usize,
    /// Total time the stream had an op in flight (its ops never overlap
    /// each other, so this is a plain interval sum).
    pub busy: f64,
    /// `busy / makespan` (0 when the makespan is 0).
    pub utilisation: f64,
}

/// Cross-stream concurrency profile of a schedule — the quantitative
/// version of the paper's Fig. 4 overlap picture.
#[derive(Debug, Clone, PartialEq)]
pub struct ConcurrencyProfile {
    /// Completion time of the last op.
    pub makespan: f64,
    /// Per-stream busy accounting, ordered by stream id.
    pub per_stream: Vec<StreamOccupancy>,
    /// Maximum number of streams simultaneously occupied.
    pub max_concurrent_streams: usize,
    /// Time-averaged number of occupied streams over the makespan.
    pub avg_concurrent_streams: f64,
}

/// Computes per-stream occupancy and cross-stream concurrency for a
/// schedule. `ops` and `sched.ops` must be index-aligned (as returned by
/// [`schedule`]).
pub fn concurrency_profile(ops: &[Op], sched: &Schedule) -> ConcurrencyProfile {
    assert_eq!(ops.len(), sched.ops.len(), "ops/schedule mismatch");

    let mut per_stream: Vec<StreamOccupancy> = Vec::new();
    for (op, os) in ops.iter().zip(&sched.ops) {
        let entry = match per_stream.iter_mut().find(|s| s.stream == op.stream) {
            Some(e) => e,
            None => {
                per_stream.push(StreamOccupancy {
                    stream: op.stream,
                    ops: 0,
                    busy: 0.0,
                    utilisation: 0.0,
                });
                // Invariant: the push above guarantees a last element.
                per_stream.last_mut().unwrap()
            }
        };
        entry.ops += 1;
        entry.busy += os.end - os.start;
    }
    per_stream.sort_by_key(|s| s.stream.0);
    for s in &mut per_stream {
        s.utilisation = if sched.makespan > 0.0 {
            s.busy / sched.makespan
        } else {
            0.0
        };
    }

    // Sweep start/end events, counting per-stream open-op depth so a
    // stream occupied by consecutive touching ops counts once. All deltas
    // at one instant are applied before concurrency is sampled, so an op
    // starting exactly when another ends (same or different stream) is
    // not counted as overlap.
    let mut events: Vec<(f64, i32, StreamId)> = Vec::new();
    for (op, os) in ops.iter().zip(&sched.ops) {
        events.push((os.start, 1, op.stream));
        events.push((os.end, -1, op.stream));
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    let mut depth: Vec<(StreamId, i32)> = Vec::new();
    let mut occupied = 0usize;
    let mut max_concurrent = 0usize;
    let mut weighted = 0.0f64;
    let mut last_t = 0.0f64;
    let mut i = 0;
    while i < events.len() {
        let t = events[i].0;
        weighted += occupied as f64 * (t - last_t);
        last_t = t;
        while i < events.len() && events[i].0 == t {
            let (_, delta, stream) = events[i];
            i += 1;
            let d = match depth.iter_mut().find(|(s, _)| *s == stream) {
                Some((_, d)) => d,
                None => {
                    depth.push((stream, 0));
                    // Invariant: the push above guarantees a last element.
                    &mut depth.last_mut().unwrap().1
                }
            };
            let was = *d;
            *d += delta;
            if was == 0 && *d > 0 {
                occupied += 1;
            } else if was > 0 && *d == 0 {
                occupied -= 1;
            }
        }
        max_concurrent = max_concurrent.max(occupied);
    }

    ConcurrencyProfile {
        makespan: sched.makespan,
        per_stream,
        max_concurrent_streams: max_concurrent,
        avg_concurrent_streams: if sched.makespan > 0.0 {
            weighted / sched.makespan
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(id: usize, stream: u32, engine: Engine, duration: f64) -> Op {
        Op::new(id, StreamId(stream), engine, duration, format!("op{id}"))
    }

    #[test]
    fn event_dependency_delays_cross_stream_op() {
        // op1 on stream 1 waits for op0 on stream 0.
        let mut o1 = op(1, 1, Engine::Device, 1.0);
        o1.wait_for = vec![0];
        let ops = vec![op(0, 0, Engine::Device, 2.0), o1];
        let s = schedule(&ops, 32);
        assert!((s.ops[1].start - 2.0).abs() < 1e-12, "waits for the event");
        assert!((s.makespan - 3.0).abs() < 1e-12);
    }

    #[test]
    fn satisfied_event_changes_nothing() {
        let mut o1 = op(1, 0, Engine::Device, 1.0);
        o1.wait_for = vec![0]; // same stream: already ordered
        let ops = vec![op(0, 0, Engine::Device, 1.0), o1];
        let s = schedule(&ops, 32);
        assert!((s.makespan - 2.0).abs() < 1e-12);
    }

    #[test]
    fn single_stream_serialises() {
        let ops = vec![
            op(0, 0, Engine::Device, 1.0),
            op(1, 0, Engine::Device, 2.0),
        ];
        let s = schedule(&ops, 32);
        assert!((s.makespan - 3.0).abs() < 1e-12);
        assert!((s.ops[0].end - 1.0).abs() < 1e-12);
        assert!((s.ops[1].start - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_memory_kernels_share_the_device() {
        // Two 1-second kernels on different streams: each runs at half
        // rate while both active → both finish at t=2. No free lunch.
        let ops = vec![
            op(0, 0, Engine::Device, 1.0),
            op(1, 1, Engine::Device, 1.0),
        ];
        let s = schedule(&ops, 32);
        assert!((s.makespan - 2.0).abs() < 1e-12);
        assert!((s.ops[0].start).abs() < 1e-12);
        assert!((s.ops[1].start).abs() < 1e-12);
    }

    #[test]
    fn transfer_overlaps_kernel_for_free() {
        let ops = vec![
            op(0, 0, Engine::Device, 2.0),
            op(1, 1, Engine::Pcie, 2.0),
        ];
        let s = schedule(&ops, 32);
        assert!((s.makespan - 2.0).abs() < 1e-12, "full overlap expected");
    }

    #[test]
    fn unequal_kernels_release_share_when_done() {
        // 1 s and 3 s kernels: both at half rate until the short one
        // finishes at t=2 (having done 1 s of work); the long one then has
        // 2 s left at full rate → ends at 4.
        let ops = vec![
            op(0, 0, Engine::Device, 1.0),
            op(1, 1, Engine::Device, 3.0),
        ];
        let s = schedule(&ops, 32);
        assert!((s.ops[0].end - 2.0).abs() < 1e-12);
        assert!((s.ops[1].end - 4.0).abs() < 1e-12);
        assert!((s.makespan - 4.0).abs() < 1e-12);
    }

    #[test]
    fn concurrency_cap_queues_kernels() {
        // Cap of 1: three 1-second kernels on three streams serialise.
        let ops = vec![
            op(0, 0, Engine::Device, 1.0),
            op(1, 1, Engine::Device, 1.0),
            op(2, 2, Engine::Device, 1.0),
        ];
        let s = schedule(&ops, 1);
        assert!((s.makespan - 3.0).abs() < 1e-12);
    }

    #[test]
    fn stream_order_respected_across_engines() {
        // stream 0: transfer then kernel — kernel must wait for transfer.
        let ops = vec![
            op(0, 0, Engine::Pcie, 1.0),
            op(1, 0, Engine::Device, 1.0),
        ];
        let s = schedule(&ops, 32);
        assert!((s.ops[1].start - 1.0).abs() < 1e-12);
        assert!((s.makespan - 2.0).abs() < 1e-12);
    }

    #[test]
    fn pipelined_chunks_overlap_copy_and_compute() {
        // Classic two-stage pipeline: per chunk, transfer (0.5 s) then
        // kernel (0.5 s), chunks on alternating streams. With overlap the
        // makespan approaches 0.5·(chunks+1) rather than 1.0·chunks.
        let mut ops = Vec::new();
        let chunks = 4;
        for c in 0..chunks {
            ops.push(op(2 * c, c as u32, Engine::Pcie, 0.5));
            ops.push(op(2 * c + 1, c as u32, Engine::Device, 0.5));
        }
        let s = schedule(&ops, 32);
        assert!(
            s.makespan < 0.5 * chunks as f64 * 2.0 - 0.4,
            "pipelining should beat serial: {}",
            s.makespan
        );
    }

    #[test]
    fn host_ops_contend_for_nothing() {
        // A host backoff wait overlaps a capped kernel queue freely and
        // takes no kernel slot: with cap 1, two kernels serialise (2 s)
        // while the 2 s host wait runs alongside.
        let ops = vec![
            op(0, 0, Engine::Device, 1.0),
            op(1, 1, Engine::Device, 1.0),
            op(2, 2, Engine::Host, 2.0),
        ];
        let s = schedule(&ops, 1);
        assert!((s.makespan - 2.0).abs() < 1e-12);
        assert!((s.ops[2].start).abs() < 1e-12, "host op starts immediately");
        // And host ops do not dilute the device share: one kernel plus one
        // host wait → kernel runs at full rate.
        let ops = vec![
            op(0, 0, Engine::Device, 1.0),
            op(1, 1, Engine::Host, 0.5),
        ];
        let s = schedule(&ops, 32);
        assert!((s.ops[0].end - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_duration_ops_complete() {
        let ops = vec![op(0, 0, Engine::Device, 0.0), op(1, 0, Engine::Device, 1.0)];
        let s = schedule(&ops, 32);
        assert!((s.makespan - 1.0).abs() < 1e-12);
        assert_eq!(s.ops[0].end, 0.0);
    }

    #[test]
    fn empty_schedule() {
        let s = schedule(&[], 32);
        assert_eq!(s.makespan, 0.0);
        assert!(s.ops.is_empty());
    }

    #[test]
    fn merge_remaps_streams_to_disjoint_ids() {
        // Two workers, each with two serial ops on their local stream 0.
        let worker = |dur: f64| {
            vec![
                op(0, 0, Engine::Device, dur),
                op(1, 0, Engine::Device, dur),
            ]
        };
        let merged = merge_op_groups(&[worker(1.0), worker(1.0)]);
        assert_eq!(merged.len(), 4);
        let streams: std::collections::HashSet<u32> =
            merged.iter().map(|o| o.stream.0).collect();
        assert_eq!(streams.len(), 2, "one global stream per worker");
        // Ids are contiguous and sorted.
        for (i, o) in merged.iter().enumerate() {
            assert_eq!(o.id, i);
        }
        // Fair-share semantics: 4×1 s of device work on 2 streams → both
        // pairs finish at t=4 (no free lunch), but each stream stays busy
        // the whole time — genuine overlap, not serialisation (which
        // would also be 4 s here but with idle tails on each stream).
        let s = schedule(&merged, 32);
        let prof = concurrency_profile(&merged, &s);
        assert_eq!(prof.max_concurrent_streams, 2);
        assert!((prof.makespan - 4.0).abs() < 1e-12);
        assert!((prof.avg_concurrent_streams - 2.0).abs() < 1e-9);
    }

    #[test]
    fn merge_rewrites_wait_for() {
        let mut g0 = vec![op(0, 0, Engine::Device, 1.0), op(1, 1, Engine::Device, 1.0)];
        g0[1].wait_for = vec![0];
        let g1 = vec![op(0, 0, Engine::Device, 1.0)];
        let merged = merge_op_groups(&[g0, g1]);
        // Round-robin order: g0#0, g1#0, g0#1.
        assert_eq!(merged[2].wait_for, vec![0], "dependency follows renumbering");
        let s = schedule(&merged, 32);
        // g0#1 cannot start before g0#0 ends.
        assert!(s.ops[2].start >= s.ops[0].end - 1e-12);
    }

    #[test]
    fn merge_is_independent_of_group_completion_order() {
        // The merge must depend only on group *index*, never on which
        // worker finished first — callers pass groups in worker order.
        let a = vec![op(0, 0, Engine::Device, 1.0)];
        let b = vec![op(0, 0, Engine::Pcie, 2.0)];
        let m1 = merge_op_groups(&[a.clone(), b.clone()]);
        let m2 = merge_op_groups(&[a, b]);
        assert_eq!(m1.len(), m2.len());
        for (x, y) in m1.iter().zip(&m2) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.stream, y.stream);
            assert_eq!(x.label, y.label);
        }
    }

    #[test]
    fn profile_counts_serial_ops_once() {
        // Back-to-back ops on one stream: never 2 concurrent streams.
        let ops = vec![
            op(0, 0, Engine::Device, 1.0),
            op(1, 0, Engine::Device, 1.0),
        ];
        let s = schedule(&ops, 32);
        let prof = concurrency_profile(&ops, &s);
        assert_eq!(prof.max_concurrent_streams, 1);
        assert_eq!(prof.per_stream.len(), 1);
        assert!((prof.per_stream[0].busy - 2.0).abs() < 1e-12);
        assert!((prof.per_stream[0].utilisation - 1.0).abs() < 1e-12);
    }

    #[test]
    fn profile_sees_transfer_compute_overlap() {
        let ops = vec![
            op(0, 0, Engine::Device, 2.0),
            op(1, 1, Engine::Pcie, 2.0),
        ];
        let s = schedule(&ops, 32);
        let prof = concurrency_profile(&ops, &s);
        assert_eq!(prof.max_concurrent_streams, 2);
        assert!((prof.avg_concurrent_streams - 2.0).abs() < 1e-9);
        assert_eq!(prof.per_stream.len(), 2);
    }

    #[test]
    fn profile_empty() {
        let s = schedule(&[], 32);
        let prof = concurrency_profile(&[], &s);
        assert_eq!(prof.max_concurrent_streams, 0);
        assert_eq!(prof.avg_concurrent_streams, 0.0);
        assert!(prof.per_stream.is_empty());
    }
}
