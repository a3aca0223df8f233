//! `selection` — database selection algorithms (Sections 4 and 5.3 of the
//! paper).
//!
//! * [`bgloss`], [`cori`], [`lm`] — the three "base" algorithms of the
//!   evaluation, all implementing [`SelectionAlgorithm`];
//! * [`hierarchical`] — the category-descent baseline of \[17\] that the
//!   shrinkage approach is compared against;
//! * [`adaptive`] — the paper's contribution: Figure 3's adaptive,
//!   per-(query, database) choice between the sample-based summary `Ŝ(D)`
//!   and the shrunk summary `R̂(D)`, driven by the closed-form score
//!   uncertainty of Section 4.
//!
//! All scoring is done through [`dbselect_core::summary::SummaryView`], so
//! the same algorithm code runs over approximate, perfect, shrunk, and
//! category summaries.

pub mod adaptive;
pub mod bgloss;
pub mod context;
pub mod cori;
pub mod hierarchical;
pub mod lm;
pub mod merge;
pub mod redde;
pub mod topk;

pub use adaptive::{
    adaptive_rank, closed_form_distribution, evidence_distribution, score_is_uncertain,
    score_is_uncertain_for_sample, score_is_uncertain_with_posteriors, shrinkage_decision,
    AdaptiveConfig, AdaptiveOutcome, Sampled, ShrinkageMode, SummaryPair, WordTerm,
};
pub use bgloss::BGloss;
pub use context::{
    rank_databases, rank_databases_with_context, ranking_order, CollectionContext,
    IndependentTerms, IndexedView, RankedDatabase, SelectionAlgorithm,
};
pub use cori::Cori;
pub use hierarchical::HierarchicalSelector;
pub use lm::Lm;
pub use merge::{merge_rankings, merge_results, MergeStrategy, MergedResult};
pub use redde::{Redde, ReddeConfig};
pub use topk::{PreparedKernel, ProbabilitySpace, ScoreKernel, TermBound, TopK};
