//! One launch, as the static analyses see it: every soundness gate
//! states its claim for the launch the simulator runs, through the
//! same [`LaunchFacts`].

use std::sync::Arc;

use gpu_sim::{GlobalMemory, LaunchConfig};
use simt_analysis::{LaunchInfo, PerfLaunch};

/// The analysis views of one simulator launch, built in one place so
/// the geometry, parameters and memory image can never disagree.
#[derive(Clone, Debug)]
pub struct LaunchFacts {
    /// The absint / memabs / memcell view.
    pub info: LaunchInfo,
    /// The perfbound / scheduler view.
    pub perf: PerfLaunch,
}

impl LaunchFacts {
    /// Describes `launch` over `memory`. With `arm_image` both views
    /// carry the full initial memory image, so loads from store-free
    /// words refine to the image's values; without it only the memory
    /// size is known.
    pub fn new(launch: &LaunchConfig, memory: &GlobalMemory, arm_image: bool) -> LaunchFacts {
        let image = arm_image.then(|| Arc::new(memory.words().to_vec()));
        LaunchFacts {
            info: LaunchInfo {
                params: launch.params().to_vec(),
                blocks: u32::try_from(launch.blocks()).ok(),
                threads_per_block: u32::try_from(launch.threads_per_block()).ok(),
                mem_words: u64::try_from(memory.len()).ok(),
                initial_mem: image.clone(),
            },
            perf: PerfLaunch {
                blocks: launch.blocks(),
                threads_per_block: launch.threads_per_block(),
                params: launch.params().to_vec(),
                initial_mem: image,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_views_describe_the_same_launch() {
        let launch = LaunchConfig::new(3, 48).with_params(vec![7, 9]);
        let memory = GlobalMemory::from_words(vec![1, 2, 3, 4]);
        let bare = LaunchFacts::new(&launch, &memory, false);
        assert_eq!(bare.info.blocks, Some(3));
        assert_eq!(bare.info.threads_per_block, Some(48));
        assert_eq!(bare.info.mem_words, Some(4));
        assert_eq!(bare.info.params, vec![7, 9]);
        assert_eq!(bare.perf.params, vec![7, 9]);
        assert_eq!((bare.perf.blocks, bare.perf.threads_per_block), (3, 48));
        assert!(bare.info.initial_mem.is_none() && bare.perf.initial_mem.is_none());

        let armed = LaunchFacts::new(&launch, &memory, true);
        assert_eq!(armed.info.initial_mem.as_deref(), Some(&vec![1, 2, 3, 4]));
        assert_eq!(armed.perf.initial_mem, armed.info.initial_mem);
    }
}
