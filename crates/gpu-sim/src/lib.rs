//! # `gpu-sim` — a CUDA-like execution model in safe Rust
//!
//! The cusFFT paper targets an NVIDIA Tesla K20x. This crate is the
//! substitution for that hardware (see DESIGN.md): kernels written against
//! a CUDA-shaped API (`grid/block/thread`, device buffers, explicit
//! host↔device transfers, streams, atomics) execute *functionally* on CPU
//! threads, while a deterministic analytic cost model — fed by per-warp
//! memory-access traces — produces the simulated device time.
//!
//! The cost model is sensitive to exactly the properties the paper's
//! optimisations manipulate:
//!
//! * **coalescing** — per-warp transaction counting ([`trace`]);
//! * **occupancy & latency chains** — Little's-law latency term
//!   ([`cost`]), which penalises the under-occupied, serially-dependent
//!   baseline loops;
//! * **atomic contention** — per-address serialisation depth ([`atomic`]);
//! * **stream overlap** — an event-driven schedule with fair device
//!   sharing and a concurrent-kernel cap ([`timeline`]).
//!
//! Nothing in the model is fitted to the paper's numbers; the device
//! parameters come from Table I and public Kepler documentation.

pub mod atomic;
pub mod breaker;
pub mod buffer;
pub mod cost;
pub mod device;
pub mod error;
pub mod fault;
pub mod gmem;
pub mod launch;
pub mod metrics;
pub mod occupancy;
pub mod spec;
pub mod timeline;
pub mod trace;

pub use atomic::{DevAppendU32, DevAtomicCplx, DevAtomicF64, DevAtomicU32};
pub use breaker::{
    BreakerConfig, BreakerDecision, BreakerState, BreakerTransition, CircuitBreaker,
};
pub use buffer::{
    BufferPool, BufferPoolStats, DeviceBuffer, MemPool, PooledBuffer, StandbySlabs, StandbyStats,
};
pub use cost::{kernel_cost, transfer_time, KernelCost};
pub use device::{GpuDevice, LaunchRecord, DEFAULT_STREAM};
pub use error::{GpuError, TransferDir};
pub use fault::{fault_roll, CrashPlan, FaultClass, FaultConfig, FaultRates, SdcTarget};
pub use gmem::Gmem;
pub use launch::{LaunchConfig, ThreadCtx};
pub use metrics::KernelStats;
pub use occupancy::{occupancy, suggest_block_size, Occupancy};
pub use spec::{CpuSpec, DeviceSpec};
pub use timeline::{
    concurrency_profile, merge_op_groups, schedule, ConcurrencyProfile, Engine, Op, Schedule,
    StreamId, StreamOccupancy,
};
