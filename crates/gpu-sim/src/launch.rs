//! Launch geometry: grids, blocks, and the CUDA-style thread hierarchy.

/// A 1-D launch configuration (the sparse-FFT kernels are all 1-D; 2-D/3-D
/// grids add nothing to the model and are omitted deliberately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of thread blocks in the grid.
    pub grid_dim: u32,
    /// Threads per block.
    pub block_dim: u32,
    /// Dynamic shared memory per block in bytes (affects occupancy).
    pub shared_mem_bytes: u32,
}

impl LaunchConfig {
    /// Builds a config with explicit grid and block sizes.
    pub fn new(grid_dim: u32, block_dim: u32) -> Self {
        assert!(grid_dim > 0, "grid_dim must be positive");
        assert!(block_dim > 0, "block_dim must be positive");
        LaunchConfig {
            grid_dim,
            block_dim,
            shared_mem_bytes: 0,
        }
    }

    /// One thread per element: picks `grid = ceil(n / block)`, the idiom
    /// every CUDA kernel in the paper uses.
    pub fn for_elements(n: usize, block_dim: u32) -> Self {
        assert!(block_dim > 0, "block_dim must be positive");
        let grid = n.div_ceil(block_dim as usize).max(1);
        assert!(grid <= u32::MAX as usize, "grid too large");
        LaunchConfig::new(grid as u32, block_dim)
    }

    /// Attaches a dynamic shared-memory request.
    pub fn with_shared_mem(mut self, bytes: u32) -> Self {
        self.shared_mem_bytes = bytes;
        self
    }

    /// Total threads launched.
    #[inline]
    pub fn total_threads(&self) -> u64 {
        self.grid_dim as u64 * self.block_dim as u64
    }

    /// Total warps launched given a warp size.
    #[inline]
    pub fn total_warps(&self, warp_size: u32) -> u64 {
        let warps_per_block = self.block_dim.div_ceil(warp_size) as u64;
        self.grid_dim as u64 * warps_per_block
    }
}

/// Per-thread identity handed to kernel bodies — the simulator's equivalent
/// of `blockIdx`/`threadIdx`/`blockDim`/`gridDim`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadCtx {
    /// Index of this thread's block within the grid.
    pub block_idx: u32,
    /// Index of this thread within its block.
    pub thread_idx: u32,
    /// Threads per block.
    pub block_dim: u32,
    /// Blocks in the grid.
    pub grid_dim: u32,
}

impl ThreadCtx {
    /// Global linear thread id: `blockIdx * blockDim + threadIdx`.
    #[inline]
    pub fn global_id(&self) -> usize {
        self.block_idx as usize * self.block_dim as usize + self.thread_idx as usize
    }

    /// The warp this thread belongs to (global numbering).
    #[inline]
    pub fn warp_id(&self, warp_size: u32) -> u64 {
        self.global_id() as u64 / warp_size as u64
    }

    /// Lane index within the warp.
    #[inline]
    pub fn lane(&self, warp_size: u32) -> u32 {
        self.thread_idx % warp_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_elements_rounds_up() {
        let cfg = LaunchConfig::for_elements(1000, 256);
        assert_eq!(cfg.grid_dim, 4);
        assert_eq!(cfg.block_dim, 256);
        assert_eq!(cfg.total_threads(), 1024);
    }

    #[test]
    fn for_elements_exact_fit() {
        let cfg = LaunchConfig::for_elements(512, 256);
        assert_eq!(cfg.grid_dim, 2);
    }

    #[test]
    fn for_elements_zero_gives_one_block() {
        let cfg = LaunchConfig::for_elements(0, 128);
        assert_eq!(cfg.grid_dim, 1);
    }

    #[test]
    #[should_panic(expected = "block_dim must be positive")]
    fn zero_block_dim_panics() {
        LaunchConfig::new(1, 0);
    }

    #[test]
    fn warp_counting() {
        let cfg = LaunchConfig::new(3, 100);
        // ceil(100/32)=4 warps per block, 3 blocks.
        assert_eq!(cfg.total_warps(32), 12);
    }

    #[test]
    fn thread_ctx_identity() {
        let ctx = ThreadCtx {
            block_idx: 2,
            thread_idx: 37,
            block_dim: 128,
            grid_dim: 4,
        };
        assert_eq!(ctx.global_id(), 2 * 128 + 37);
        assert_eq!(ctx.lane(32), 5);
        assert_eq!(ctx.warp_id(32), (2 * 128 + 37) as u64 / 32);
    }

    #[test]
    fn shared_mem_builder() {
        let cfg = LaunchConfig::new(1, 32).with_shared_mem(4096);
        assert_eq!(cfg.shared_mem_bytes, 4096);
    }
}
