//! Evaluation harness: reproduces every table and figure of the paper's
//! evaluation section (§4) on the simulator substrate.
//!
//! Each `figN` function runs the corresponding experiment and returns a
//! structured result with a paper-style text rendering; the `figures`
//! binary drives them and writes CSV/TXT artifacts under `results/`.
//! Criterion benches in `benches/` cover the efficiency figures and the
//! design-choice ablations called out in DESIGN.md.

pub mod cadence;
pub mod correctness;
pub mod efficiency;
pub mod load_scaling;
pub mod report;

pub use cadence::{CadenceResult, CadenceRow};
pub use correctness::{fig10, fig6, fig7, fig8, fig9, CurveSet, Table3};
pub use efficiency::{fig11, fig12, Fig11Result, Fig12Result};
pub use load_scaling::{fig13, Fig13Result, ScaleRow};
