//! Experiment drivers — one per figure of the paper's §6 evaluation.
//!
//! Every driver has a `paper()` configuration (the sizes and sweeps of
//! the paper) and a `smoke()` configuration (minutes → milliseconds, for
//! tests and the `repro` smoke runs), runs deterministically from its seed,
//! and renders its results as the same rows/series the paper plots.
//!
//! | Module | Paper figure |
//! |--------|--------------|
//! | [`fig06`] | Fig 6 — accuracy of the count/sum operators vs `c` |
//! | [`validity`] | Figs 7, 8, 9 — declared values vs ORACLE bounds under churn |
//! | [`fig10`] | Fig 10 — communication cost on Random (+ Gnutella) |
//! | [`fig11`] | Fig 11 — communication cost on Grid (radio) |
//! | [`fig12`] | Fig 12 — computation-cost distribution |
//! | [`fig13`] | Fig 13a/b — time cost; messages per time instant |
//! | [`price`] | §1.1/§7 headline — the price of validity |
//! | [`ablation`] | ablations A1–A3 — §5.3 optimizations, sketch paths |
//! | [`adversary`] | beyond the paper — sketch-targeted vs uniform churn at equal budget |
//! | [`overlay`] | beyond the paper — static graph vs maintained overlay at equal churn |

pub mod ablation;
pub mod adversary;
pub mod ext_accuracy;
pub mod fig06;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod overlay;
pub mod price;
pub mod validity;
