//! The head-MMA policy interface.

use crate::counters::OccupancyCounters;
use crate::lookahead::LookaheadRegister;
use pktbuf_model::LogicalQueueId;

/// A head Memory Management Algorithm: every granularity period it selects the
/// queue whose SRAM contents should be replenished from DRAM.
pub trait HeadMma {
    /// Selects the queue to replenish, given the current occupancy counters
    /// and the lookahead contents. Returns `None` when no queue needs (or can
    /// use) a replenishment.
    fn select(
        &mut self,
        counters: &OccupancyCounters,
        lookahead: &LookaheadRegister,
    ) -> Option<LogicalQueueId>;

    /// Granularity (cells per replenishment) this policy was configured with.
    fn granularity(&self) -> usize;

    /// Human-readable policy name (for reports and ablations).
    fn name(&self) -> &'static str;

    /// Notifies the policy that `queue`'s counter or pending-request set just
    /// changed. [`crate::HeadMmaSubsystem`] calls this after every mutation so
    /// that incremental policies (ECQF's critical-position tree) can update
    /// their state; the default is a no-op and stateless policies may ignore
    /// it.
    fn note_queue_changed(
        &mut self,
        queue: LogicalQueueId,
        counters: &OccupancyCounters,
        lookahead: &LookaheadRegister,
    ) {
        let _ = (queue, counters, lookahead);
    }
}

// A boxed policy is itself a policy, so [`crate::HeadMmaSubsystem`] can stay
// generic over the policy type (monomorphized hot paths) while the
// enum-driven constructor keeps handing out type-erased boxes.
impl HeadMma for Box<dyn HeadMma + Send> {
    fn select(
        &mut self,
        counters: &OccupancyCounters,
        lookahead: &LookaheadRegister,
    ) -> Option<LogicalQueueId> {
        (**self).select(counters, lookahead)
    }

    fn granularity(&self) -> usize {
        (**self).granularity()
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn note_queue_changed(
        &mut self,
        queue: LogicalQueueId,
        counters: &OccupancyCounters,
        lookahead: &LookaheadRegister,
    ) {
        (**self).note_queue_changed(queue, counters, lookahead);
    }
}

/// Enumerates the available head-MMA policies (for configuration files and
/// ablation benchmarks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeadMmaPolicy {
    /// Earliest Critical Queue First (minimum SRAM, maximum lookahead).
    Ecqf,
    /// Most Deficit Queue First (any lookahead, larger SRAM).
    Mdqf,
}

impl HeadMmaPolicy {
    /// All policies.
    pub fn all() -> [HeadMmaPolicy; 2] {
        [HeadMmaPolicy::Ecqf, HeadMmaPolicy::Mdqf]
    }

    /// Instantiates the policy with the given granularity.
    pub fn instantiate(self, granularity: usize) -> Box<dyn HeadMma + Send> {
        match self {
            HeadMmaPolicy::Ecqf => Box::new(crate::EcqfMma::new(granularity)),
            HeadMmaPolicy::Mdqf => Box::new(crate::MdqfMma::new(granularity)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_instantiate_with_granularity() {
        for p in HeadMmaPolicy::all() {
            let mma = p.instantiate(8);
            assert_eq!(mma.granularity(), 8);
            assert!(!mma.name().is_empty());
        }
    }
}
