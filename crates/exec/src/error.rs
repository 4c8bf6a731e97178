//! Error types for planning and executing SAM graphs.

use sam_sim::SimulationError;
use std::fmt;

/// An error found while planning a graph for execution.
///
/// Planning validates the graph structurally (acyclicity, port wiring) and
/// against the bound tensors (names, formats, dimensions) before any backend
/// runs, so execution failures surface as typed errors instead of mid-run
/// panics or deadlocks.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// A coordinate-skip feedback edge is wired incorrectly.
    BadSkipEdge {
        /// Label of the offending edge.
        edge: String,
        /// Why the wiring is invalid.
        reason: String,
    },
    /// The graph is not a DAG.
    Cycle {
        /// Labels of the nodes involved in (or downstream of) the cycle.
        stuck: Vec<String>,
    },
    /// An input port of a node has no incoming edge.
    UnboundInput {
        /// Label of the consumer node.
        label: String,
        /// The unbound input-port index.
        port: usize,
    },
    /// A node received more inputs than its signature accepts, or an edge's
    /// stream kind fits no remaining port.
    ExtraInput {
        /// Label of the consumer node.
        label: String,
        /// Label of the offending edge.
        edge: String,
    },
    /// Two edges claim the same input port.
    DuplicateInput {
        /// Label of the consumer node.
        label: String,
        /// The contested input-port index.
        port: usize,
    },
    /// An edge names an out-of-range or kind-incompatible port.
    BadPort {
        /// Label of the edge.
        edge: String,
    },
    /// An unported edge could not be attributed to a unique output port.
    AmbiguousPort {
        /// Label of the producer node.
        label: String,
    },
    /// A node references a tensor that was not bound.
    UnknownTensor {
        /// The tensor name.
        name: String,
    },
    /// A reference stream reaching a scanner or locator belongs to a
    /// different tensor than the node declares.
    TensorMismatch {
        /// Label of the consumer node.
        label: String,
        /// Tensor the node declares.
        expected: String,
        /// Tensor the incoming reference stream iterates.
        found: String,
    },
    /// A scanner or locator sits deeper than the bound tensor has levels.
    LevelOutOfRange {
        /// The tensor name.
        tensor: String,
        /// The storage level the node would read.
        level: usize,
    },
    /// A scanner's compressed/dense annotation contradicts the bound level.
    FormatMismatch {
        /// The tensor name.
        tensor: String,
        /// The storage level with the contradiction.
        level: usize,
    },
    /// The graph does not consume all of a bound tensor's storage levels:
    /// a value array reads references that stop `consumed` levels deep into
    /// a tensor with `levels` levels (e.g. a matrix bound where the kernel
    /// iterates a vector).
    RankMismatch {
        /// The tensor name.
        tensor: String,
        /// How many levels the reference stream reaching the value array
        /// has traversed.
        consumed: usize,
        /// How many storage levels the bound tensor actually has.
        levels: usize,
    },
    /// An ALU names an operation the executor does not know.
    UnknownAluOp {
        /// The operation mnemonic.
        op: String,
    },
    /// A `ConstVal` source names a tensor that is not a single-value scalar
    /// (one stored value, every dimension 1 — see `Inputs::scalar`).
    NotScalar {
        /// The tensor name.
        tensor: String,
        /// How many values the bound tensor actually holds.
        vals: usize,
        /// The bound tensor's per-level dimensions.
        dims: Vec<usize>,
    },
    /// The graph has no values writer, so it produces no output.
    MissingValsWriter,
    /// The graph has several values writers.
    MultipleValsWriters,
    /// No scanner iterates the index variable of a level writer, so its
    /// dimension cannot be inferred.
    UnknownDimension {
        /// The index variable.
        index: char,
    },
    /// The static verifier (`sam-verify`) rejected the graph before
    /// planning. Carries every error-severity diagnostic, not just the
    /// first — strictly more specific than the planner's own
    /// first-error-wins validation, which this subsumes on the
    /// [`crate::Planner`] path.
    Rejected {
        /// The verifier's error diagnostics, in graph order.
        diagnostics: Vec<sam_verify::Diagnostic>,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::BadSkipEdge { edge, reason } => {
                write!(f, "skip edge `{edge}` is wired incorrectly: {reason}")
            }
            PlanError::Cycle { stuck } => write!(f, "graph contains a cycle through: {}", stuck.join(", ")),
            PlanError::UnboundInput { label, port } => {
                write!(f, "input port {port} of `{label}` has no incoming stream")
            }
            PlanError::ExtraInput { label, edge } => {
                write!(f, "edge `{edge}` does not fit any free input port of `{label}`")
            }
            PlanError::DuplicateInput { label, port } => {
                write!(f, "input port {port} of `{label}` is driven by more than one stream")
            }
            PlanError::BadPort { edge } => write!(f, "edge `{edge}` names an invalid port"),
            PlanError::AmbiguousPort { label } => {
                write!(f, "outputs of `{label}` cannot be attributed to unique ports; wire explicit ports")
            }
            PlanError::UnknownTensor { name } => write!(f, "tensor `{name}` is not bound"),
            PlanError::TensorMismatch { label, expected, found } => {
                write!(f, "`{label}` expects tensor `{expected}` but receives a `{found}` reference stream")
            }
            PlanError::LevelOutOfRange { tensor, level } => {
                write!(f, "tensor `{tensor}` has no storage level {level}")
            }
            PlanError::FormatMismatch { tensor, level } => {
                write!(f, "scanner annotation disagrees with level {level} of tensor `{tensor}`")
            }
            PlanError::RankMismatch { tensor, consumed, levels } => {
                write!(
                    f,
                    "tensor `{tensor}` has {levels} storage level(s) but the graph consumes only \
                     {consumed} before reading values"
                )
            }
            PlanError::UnknownAluOp { op } => write!(f, "unknown ALU operation `{op}`"),
            PlanError::NotScalar { tensor, vals, dims } => {
                write!(
                    f,
                    "constant source `{tensor}` must bind a single-value scalar \
                     (one stored value, every dimension 1); found {vals} value(s) over dimensions {dims:?}"
                )
            }
            PlanError::MissingValsWriter => write!(f, "graph has no values writer"),
            PlanError::MultipleValsWriters => write!(f, "graph has more than one values writer"),
            PlanError::UnknownDimension { index } => {
                write!(f, "no scanner iterates `{index}`, so the output dimension is unknown")
            }
            PlanError::Rejected { diagnostics } => {
                write!(f, "graph failed static verification ({} error(s))", diagnostics.len())?;
                for d in diagnostics {
                    write!(f, "\n{d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// An error raised while executing a planned graph.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// Planning failed.
    Plan(PlanError),
    /// The cycle-approximate simulation failed (deadlock or cycle limit).
    Sim(SimulationError),
    /// The fast backend found structurally misaligned streams at a node —
    /// the functional analogue of a simulator deadlock.
    Misaligned {
        /// Label of the node that observed the mismatch.
        label: String,
    },
    /// A value-array reference left the bounds of its tensor's values.
    RefOutOfBounds {
        /// Label of the array node.
        label: String,
        /// The offending reference.
        reference: usize,
    },
    /// A writer never received its done token, so the output is incomplete.
    IncompleteOutput {
        /// Label of the writer.
        label: String,
    },
    /// The tiled backend cannot derive a structure-preserving tile schedule
    /// for this graph (unported edges, untraceable streams, conflicting
    /// dimensions).
    TilingUnsupported {
        /// Why the schedule analysis gave up.
        reason: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Plan(e) => write!(f, "planning failed: {e}"),
            ExecError::Sim(e) => write!(f, "simulation failed: {e}"),
            ExecError::Misaligned { label } => {
                write!(f, "streams reaching `{label}` are structurally misaligned")
            }
            ExecError::RefOutOfBounds { label, reference } => {
                write!(f, "reference {reference} out of bounds at `{label}`")
            }
            ExecError::IncompleteOutput { label } => {
                write!(f, "writer `{label}` did not finish")
            }
            ExecError::TilingUnsupported { reason } => {
                write!(f, "tiled execution unsupported: {reason}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

impl From<PlanError> for ExecError {
    fn from(e: PlanError) -> Self {
        ExecError::Plan(e)
    }
}

impl From<SimulationError> for ExecError {
    fn from(e: SimulationError) -> Self {
        ExecError::Sim(e)
    }
}
