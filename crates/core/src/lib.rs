//! # sam-core
//!
//! The SAM graph intermediate representation and the kernel graph catalog.
//!
//! * [`graph`] — the [`SamGraph`] IR: typed nodes for every
//!   SAM primitive, edges carrying stream kinds, primitive counting
//!   (Table 1 / Table 2) and Graphviz DOT export. This is the
//!   LLVM-like interface the paper positions between the Custard compiler
//!   and hardware backends.
//! * [`build`] — [`GraphBuilder`]: ergonomic
//!   construction of *executable* graphs whose edges carry explicit port
//!   annotations, the form `sam-exec` plans and runs.
//! * [`graphs`] — the paper's kernels (Figures 11–14) expressed once as
//!   executable graphs, runnable on every `sam-exec` backend.

pub mod build;
pub mod graph;
pub mod graphs;

pub use build::GraphBuilder;
pub use graph::{NodeKind, PortKind, PrimitiveCounts, SamGraph, StreamKind};

/// The old home of [`graphs::SpmmDataflow`]. It exists only for the
/// benchmark harness under `perfbench/`, which imports the enum from here.
pub mod kernels {
    /// See [`crate::kernels`].
    pub mod spmm {
        pub use crate::graphs::SpmmDataflow;
    }
}
