//! Graph lints: structurally legal graphs with shapes the verifier
//! considers suspicious. All lints fire at [`Severity::Warning`].
//!
//! [`Severity::Warning`]: crate::Severity

use crate::analysis::{Analysis, StreamType};
use crate::diag::{Diagnostic, Report, Rule};
use sam_core::graph::{NodeId, NodeKind, SamGraph};

/// Fan-out a planned fork replicates without complaint; anything wider
/// should be restructured as a broadcast (the widest hand-written catalog
/// kernel forks a port three ways).
pub const MAX_FORK_FANOUT: usize = 3;

/// Runs every lint over a completed analysis, appending findings to
/// `report`. Lints need the resolved topology, so they are skipped when
/// the graph has a data cycle.
pub fn run(graph: &SamGraph, analysis: &Analysis, report: &mut Report) {
    if !analysis.acyclic() {
        return;
    }
    let nodes = graph.nodes();
    let n = nodes.len();

    // Backward reachability from the writers: a node none of whose streams
    // contribute to any writer is dead weight.
    let mut live = vec![false; n];
    let mut stack: Vec<usize> =
        (0..n).filter(|&i| matches!(nodes[i], NodeKind::LevelWriter { .. })).collect();
    for &w in &stack {
        live[w] = true;
    }
    while let Some(u) = stack.pop() {
        for src in analysis.inputs_of(u).iter().flatten() {
            if !live[src.node] {
                live[src.node] = true;
                stack.push(src.node);
            }
        }
    }
    for (i, &alive) in live.iter().enumerate() {
        if !alive {
            report.push(
                Diagnostic::new(
                    Rule::DeadNode,
                    format!(
                        "`{}` reaches no writer; its work is computed and discarded",
                        graph.node_label(NodeId(i))
                    ),
                )
                .at(i, graph.node_label(NodeId(i))),
            );
        }
    }

    for i in (0..n).filter(|&i| live[i]) {
        for (port, conns) in analysis.consumers_of(i).iter().enumerate() {
            // A live node discarding a computed value stream.
            if conns.is_empty() && analysis.stream_type(i, port) == Some(&StreamType::Val) {
                report.push(
                    Diagnostic::new(
                        Rule::UnusedOutput,
                        format!(
                            "value output port {port} of `{}` has no consumer; the computed \
                             values are discarded",
                            graph.node_label(NodeId(i))
                        ),
                    )
                    .at(i, graph.node_label(NodeId(i)))
                    .on_port(port),
                );
            }
            // Fan-out wider than a fork comfortably replicates.
            if conns.len() > MAX_FORK_FANOUT {
                report.push(
                    Diagnostic::new(
                        Rule::ForkShouldBroadcast,
                        format!(
                            "output port {port} of `{}` fans out to {} consumers; a fork \
                             replicates every token per consumer — restructure as a broadcast",
                            graph.node_label(NodeId(i)),
                            conns.len()
                        ),
                    )
                    .at(i, graph.node_label(NodeId(i)))
                    .on_port(port),
                );
            }
        }
    }

    // Missing skip edges, mirroring the compiler's heuristic
    // (`LowerOptions::skip_edges`): a binary intersection whose two
    // operands come straight from scanners of skewed density (one dense,
    // one compressed) gallops in O(1) on the dense side — but only if the
    // Section 4.2 feedback lanes are wired.
    for i in 0..n {
        if !matches!(nodes[i], NodeKind::Intersecter { .. }) {
            continue;
        }
        if analysis.skip_lanes().iter().any(|l| l.intersecter == i) {
            continue;
        }
        let scanner_of = |slot: usize, port: usize| {
            analysis.inputs_of(i)[slot].filter(|src| src.port == port).and_then(|src| {
                match &nodes[src.node] {
                    NodeKind::LevelScanner { compressed, .. } => Some((src.node, *compressed)),
                    _ => None,
                }
            })
        };
        let (Some((s0, c0)), Some((s1, c1))) = (scanner_of(0, 0), scanner_of(1, 0)) else {
            continue;
        };
        // The heuristic fires on skewed density only, and only when the
        // lanes would be legal: refs from the same scanners, and each
        // scanner private to this intersecter.
        let refs_match =
            scanner_of(2, 1).map(|(s, _)| s) == Some(s0) && scanner_of(3, 1).map(|(s, _)| s) == Some(s1);
        let private =
            |s: usize| analysis.consumers_of(s)[0].len() == 1 && analysis.consumers_of(s)[1].len() == 1;
        if c0 != c1 && refs_match && private(s0) && private(s1) {
            report.push(
                Diagnostic::new(
                    Rule::MissingSkipEdge,
                    format!(
                        "`{}` intersects a compressed level with a dense one but has no \
                         coordinate-skip lanes; the format heuristic (`LowerOptions::skip_edges`) \
                         would wire them and enable galloping",
                        graph.node_label(NodeId(i))
                    ),
                )
                .at(i, graph.node_label(NodeId(i))),
            );
        }
    }
}
