//! The three communication systems every application is implemented in
//! (§4 of the paper): hand-coded Active Messages, Optimistic RPC, and
//! Traditional RPC.

use oam_machine::RunReport;
use oam_model::{Dur, MachineStats, Time};
use oam_rpc::RpcMode;

/// Which communication system an application variant uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum System {
    /// Hand-coded Active Messages: inline handlers, manually synthesized
    /// critical regions, manual continuations. The performance baseline.
    HandAm,
    /// Optimistic RPC: stub-generated remote procedures executed as
    /// Optimistic Active Messages.
    Orpc,
    /// Traditional RPC: stub-generated remote procedures, a thread per
    /// call.
    Trpc,
}

impl System {
    /// All three systems, in the paper's comparison order.
    pub const ALL: [System; 3] = [System::HandAm, System::Orpc, System::Trpc];

    /// Label used in tables and figures.
    pub fn label(self) -> &'static str {
        match self {
            System::HandAm => "AM",
            System::Orpc => "ORPC",
            System::Trpc => "TRPC",
        }
    }

    /// The stub mode for RPC-based systems.
    ///
    /// # Panics
    /// Panics for [`System::HandAm`], which does not go through stubs.
    pub fn rpc_mode(self) -> RpcMode {
        match self {
            System::Orpc => RpcMode::Orpc,
            System::Trpc => RpcMode::Trpc,
            System::HandAm => panic!("hand-coded AM has no RPC mode"),
        }
    }
}

/// Outcome of one application run: the measured virtual time, an
/// application-defined answer used to cross-check the variants against
/// each other, and the harvested machine statistics.
#[derive(Debug, Clone)]
pub struct AppOutcome {
    /// Virtual time from start to completion.
    pub elapsed: Dur,
    /// Application answer (solution count, tour length, checksum bits...).
    pub answer: u64,
    /// Per-node statistics.
    pub stats: MachineStats,
    /// Simulation events executed (a proxy for simulator work, and the
    /// numerator of the perf harness's events/sec metric).
    pub events: u64,
    /// Settles that advanced the clock in place instead of firing an event
    /// (see [`RunReport::in_place`]).
    pub in_place: u64,
    /// High-water mark of the simulator's event queue during the run.
    pub peak_queue_depth: u64,
}

impl AppOutcome {
    /// The outcome of a run that ended with `report` and computed
    /// `answer`.
    pub fn new(report: RunReport, answer: u64) -> Self {
        AppOutcome {
            elapsed: report.end_time.since(Time::ZERO),
            answer,
            stats: report.stats,
            events: report.events,
            in_place: report.in_place,
            peak_queue_depth: report.peak_queue_depth,
        }
    }

    /// Speedup relative to a sequential baseline time.
    pub fn speedup(&self, sequential: Dur) -> f64 {
        sequential.as_secs_f64() / self.elapsed.as_secs_f64()
    }

    /// Fraction of optimistic executions that succeeded, if any were
    /// attempted (Tables 2 and 3).
    pub fn oam_success_rate(&self) -> Option<f64> {
        self.stats.total().success_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_modes() {
        assert_eq!(System::HandAm.label(), "AM");
        assert_eq!(System::Orpc.rpc_mode(), RpcMode::Orpc);
        assert_eq!(System::Trpc.rpc_mode(), RpcMode::Trpc);
        assert_eq!(System::ALL.len(), 3);
    }

    #[test]
    #[should_panic(expected = "no RPC mode")]
    fn hand_am_has_no_mode() {
        let _ = System::HandAm.rpc_mode();
    }
}
