//! Hang diagnosis: distinguishing a deadlocked machine from one that merely
//! ran out of virtual-time budget, and explaining either.
//!
//! A simulated multicomputer can stop making progress in two distinct ways:
//!
//! * **Deadlock / lost completion** — the event heap drains while some
//!   node's main is still blocked. With a fault plan active and
//!   retransmission disabled, a single dropped request is enough: the
//!   caller spins on a reply that will never come, the node goes idle, and
//!   the simulation quiesces. The same signature arises from genuine
//!   distributed deadlock (cyclic lock waits across nodes).
//! * **Budget overrun** — virtual time reaches the caller-supplied budget
//!   with events still pending. The machine is *live* (e.g. retransmission
//!   timers keep firing) but has not finished; either the budget is too
//!   small or the workload is livelocked.
//!
//! [`crate::Machine::run_with_watchdog`] runs a program under a budget and
//! returns a structured [`HangReport`] instead of panicking or hanging, with
//! per-node scheduler snapshots, outstanding-call counts, and the number of
//! packets still sitting in the fabric — enough to tell "waiting on a lost
//! reply" from "two nodes hold each other's locks" at a glance.

use core::fmt;

use oam_model::Time;
use oam_threads::NodeDiag;

/// Why the watchdog stopped the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HangKind {
    /// The simulation went completely quiet — no events, no runnable
    /// threads — with at least one node's main still incomplete. Nothing
    /// will ever wake the machine again.
    Deadlock,
    /// Virtual time reached the budget with events still pending: the
    /// machine is live but not done.
    BudgetExceeded,
}

impl fmt::Display for HangKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HangKind::Deadlock => f.write_str("deadlock"),
            HangKind::BudgetExceeded => f.write_str("budget-exceeded"),
        }
    }
}

/// Per-node slice of a [`HangReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeHangInfo {
    /// Scheduler snapshot (idle, runnable/spinning/parked thread counts).
    pub diag: NodeDiag,
    /// RPCs this node issued that never completed (no reply, ack, or NACK).
    pub outstanding_calls: usize,
    /// Packets sitting in this node's NI input FIFO at the stop — a large
    /// backlog on a live machine points at overload rather than deadlock.
    pub input_queue_depth: usize,
    /// Whether this node's main ran to completion.
    pub main_done: bool,
}

/// Structured diagnosis of a run that failed to complete, returned by
/// [`crate::Machine::run_with_watchdog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HangReport {
    /// Deadlock or budget overrun.
    pub kind: HangKind,
    /// Virtual time when the run was stopped.
    pub at: Time,
    /// One entry per node, indexed by node id.
    pub nodes: Vec<NodeHangInfo>,
    /// Packets still sitting in NI FIFOs or the fabric.
    pub in_flight_packets: usize,
    /// Simulation events executed before the stop.
    pub events: u64,
}

impl HangReport {
    /// Nodes whose main never completed.
    pub fn stuck_nodes(&self) -> impl Iterator<Item = &NodeHangInfo> {
        self.nodes.iter().filter(|n| !n.main_done)
    }

    /// Total calls outstanding across the machine.
    pub fn total_outstanding_calls(&self) -> usize {
        self.nodes.iter().map(|n| n.outstanding_calls).sum()
    }
}

impl fmt::Display for HangReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "machine hang: {} at {} ({} events, {} packets in flight)",
            self.kind, self.at, self.events, self.in_flight_packets
        )?;
        // A run of nodes in the same state prints once: a hung 128-node
        // run would otherwise print 128 near-identical lines.
        let states: Vec<(usize, String)> =
            self.nodes.iter().map(|n| (n.diag.node.index(), n.state())).collect();
        for run in states.chunk_by(|a, b| a.1 == b.1) {
            let ((first, state), (last, _)) = (&run[0], &run[run.len() - 1]);
            if first == last {
                writeln!(f, "  node {first}: {state}")?;
            } else {
                writeln!(f, "  nodes {first}–{last}: {state}")?;
            }
        }
        Ok(())
    }
}

impl NodeHangInfo {
    /// The report line for this node, without its id.
    fn state(&self) -> String {
        let d = &self.diag;
        format!(
            "main {}, {} live ({} runnable, {} spinning, {} parked), \
             {} outstanding call(s), {} queued input(s){}",
            if self.main_done { "done" } else { "STUCK" },
            d.live_threads,
            d.runnable,
            d.spinning,
            d.parked,
            self.outstanding_calls,
            self.input_queue_depth,
            if d.idle { ", idle" } else { "" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oam_model::NodeId;

    fn diag(node: usize, spinning: usize) -> NodeDiag {
        NodeDiag {
            node: NodeId(node),
            idle: true,
            live_threads: 1,
            runnable: 0,
            spinning,
            parked: 0,
        }
    }

    #[test]
    fn report_accessors_and_display() {
        let r = HangReport {
            kind: HangKind::Deadlock,
            at: Time::from_nanos(123),
            nodes: vec![
                NodeHangInfo {
                    diag: diag(0, 1),
                    outstanding_calls: 1,
                    input_queue_depth: 3,
                    main_done: false,
                },
                NodeHangInfo {
                    diag: diag(1, 0),
                    outstanding_calls: 0,
                    input_queue_depth: 0,
                    main_done: true,
                },
            ],
            in_flight_packets: 0,
            events: 42,
        };
        assert_eq!(r.stuck_nodes().count(), 1);
        assert_eq!(r.total_outstanding_calls(), 1);
        let text = r.to_string();
        assert!(text.contains("deadlock"));
        assert!(text.contains("node 0: main STUCK"));
        assert!(text.contains("node 1: main done"));
    }

    #[test]
    fn runs_of_nodes_in_the_same_state_print_as_one_line() {
        let node = |i: usize, main_done: bool| NodeHangInfo {
            diag: diag(i, usize::from(!main_done)),
            outstanding_calls: usize::from(!main_done),
            input_queue_depth: 0,
            main_done,
        };
        let r = HangReport {
            kind: HangKind::BudgetExceeded,
            at: Time::from_nanos(1),
            nodes: (0..128).map(|i| node(i, i != 77)).collect(),
            in_flight_packets: 0,
            events: 1,
        };
        let text = r.to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "header and three runs:\n{text}");
        assert!(lines[1].starts_with("  nodes 0–76: main done"), "{text}");
        assert!(
            lines[2].starts_with("  node 77: main STUCK, 1 live (0 runnable, 1 spinning"),
            "{text}"
        );
        assert!(lines[3].starts_with("  nodes 78–127: main done"), "{text}");
    }
}
