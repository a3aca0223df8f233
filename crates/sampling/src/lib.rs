//! `sampling` — building approximate content summaries of uncooperative
//! text databases by querying (Sections 2.2 and 5.2 of the paper).
//!
//! * [`qbs`] — Query-Based Sampling (Callan & Connell): random single-word
//!   queries, ≤4 unseen documents per query, stop at 300 documents or 500
//!   consecutive misses;
//! * [`classifier`] + [`fps`] — Focused Probing (Ipeirotis & Gravano):
//!   classifier-derived topical probes that simultaneously sample the
//!   database and classify it into the topic hierarchy;
//! * [`size`] — sample-resample database size estimation (Si & Callan);
//! * [`pipeline`] — the four summary-construction pipelines of the paper's
//!   evaluation: {QBS, FPS} × {with, without} Appendix-A frequency
//!   estimation.
//!
//! Everything here talks to databases exclusively through
//! [`textindex::RemoteDatabase`], the restricted "search box only"
//! interface, so no sampler can accidentally peek at hidden state.

pub mod classifier;
pub mod fps;
mod idset;
pub mod parallel;
pub mod pipeline;
pub mod probes;
pub mod qbs;
pub mod refresh;
pub mod rules;
pub mod sample;
pub mod scheduler;
pub mod size;

pub use classifier::ProbeClassifier;
pub use fps::{fps_sample, FpsConfig, FpsOutcome};
pub use parallel::{profile_fps_many, profile_qbs_many};
pub use pipeline::{
    profile_fps, profile_qbs, summarize, DatabaseProfile, PipelineConfig, SamplerKind,
};
pub use probes::ProbeSource;
pub use qbs::{qbs_sample, QbsConfig};
pub use rules::{Rule, RuleClassifier, RuleLearnerConfig};
pub use sample::DocumentSample;
pub use scheduler::{db_rng, fan_out};
pub use size::{sample_resample, SizeEstimationConfig};
