//! The workload container.

use gpu_sim::{GlobalMemory, LaunchConfig};
use simt_isa::Kernel;

/// The divergence character a workload is designed to exhibit — used by
/// tests to verify the synthetic kernels reproduce their CUDA
/// counterparts' behaviour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DivergenceProfile {
    /// No divergent instructions at all (the paper's `AES`).
    None,
    /// A small divergent fraction (boundary conditions etc.).
    Low,
    /// A large divergent fraction (`BFS`, `dwt2d`, `spmv`).
    High,
}

/// A ready-to-run benchmark: kernel + launch geometry + initial memory.
#[derive(Clone, Debug)]
pub struct Workload {
    name: &'static str,
    description: &'static str,
    kernel: Kernel,
    launch: LaunchConfig,
    memory: GlobalMemory,
    divergence: DivergenceProfile,
}

impl Workload {
    /// Assembles a workload (used by the kernel builder modules).
    pub fn new(
        name: &'static str,
        description: &'static str,
        kernel: Kernel,
        launch: LaunchConfig,
        memory: GlobalMemory,
        divergence: DivergenceProfile,
    ) -> Self {
        Workload {
            name,
            description,
            kernel,
            launch,
            memory,
            divergence,
        }
    }

    /// Benchmark name as it appears in the paper's figures.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line description of what the kernel models.
    pub fn description(&self) -> &'static str {
        self.description
    }

    /// The kernel program.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The launch geometry and parameters.
    pub fn launch(&self) -> &LaunchConfig {
        &self.launch
    }

    /// A fresh copy of the initial device memory (runs mutate memory, so
    /// every run should start from its own copy).
    pub fn fresh_memory(&self) -> GlobalMemory {
        self.memory.clone()
    }

    /// The divergence character this workload is designed to exhibit.
    pub fn divergence(&self) -> DivergenceProfile {
        self.divergence
    }
}
