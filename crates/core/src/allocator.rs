//! The [`Allocator`] trait every scheduling scheme implements, and the
//! [`Scheme`] registry the simulator, CLI and experiment harness use.
//!
//! [`Scheme`] is the single naming authority for the paper's five
//! scheduling approaches: it carries the figure-label spelling
//! ([`Scheme::name`] / [`Display`](std::fmt::Display)), the accepted
//! command-line spellings ([`FromStr`](std::str::FromStr)), the JSON
//! encoding (serde, via the same label), and the two factories
//! ([`Scheme::make`] on an existing tree, [`Scheme::build`] straight from
//! [`FatTreeParams`]). Call sites must never match on scheme-name strings
//! — parse once at the boundary, pass `Scheme` everywhere after.

use crate::alloc::{release_allocation, Allocation};
use crate::defrag::MigrationPlan;
use crate::job::JobRequest;
use crate::reject::Reject;
use jigsaw_topology::{FatTree, FatTreeParams, SystemState};
use serde::{Deserialize, Serialize};

/// The three-way outcome of a scheduling decision.
///
/// The paper's Algorithm 1 only admits or rejects; the `Reconfigure` arm
/// is the repo's extension (ROADMAP item 3): when a request is rejected
/// *because of fragmentation* — not because the machine lacks raw capacity
/// — a bounded [`MigrationPlan`] can describe how to compact resident jobs
/// so the request fits. The plan is a proposal: nothing has been claimed
/// in the state yet, and the caller chooses whether to pay the migration
/// cost ([`crate::defrag::apply_plan`]) or treat the outcome as a
/// rejection ([`Decision::into_result`]). No in-tree scheme returns
/// `Reconfigure` itself: the simulator and the daemon call
/// [`crate::defrag::plan_migrations`] on fragmentation rejects.
#[must_use = "an Admit has already claimed resources and a Reconfigure awaits apply_plan; dropping the decision leaks or discards them"]
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// The request was placed; resources are already claimed in the state.
    Admit(Allocation),
    /// No legal placement exists right now (typed reason plus the
    /// would-it-fit-empty fragmentation hint).
    Reject(Reject),
    /// No placement exists *as occupied*, but the attached plan migrates
    /// resident jobs so one does. Nothing is claimed until the plan is
    /// applied.
    Reconfigure(MigrationPlan),
}

impl Decision {
    /// Collapse to the two-outcome view: `Reconfigure` degrades to the
    /// rejection that triggered the plan (the plan is dropped — it claimed
    /// nothing). This is what callers that cannot migrate use.
    #[must_use = "an admitted grant has already claimed nodes and links; dropping it leaks them"]
    pub fn into_result(self) -> Result<Allocation, Reject> {
        match self {
            Decision::Admit(alloc) => Ok(alloc),
            Decision::Reject(reject) => Err(reject),
            Decision::Reconfigure(plan) => Err(plan.blocking),
        }
    }

    /// `true` for [`Decision::Admit`].
    pub fn is_admit(&self) -> bool {
        matches!(self, Decision::Admit(_))
    }

    /// Stable snake_case outcome label (`"admit"` / `"reject"` /
    /// `"reconfigure"`), for logs and metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            Decision::Admit(_) => "admit",
            Decision::Reject(_) => "reject",
            Decision::Reconfigure(_) => "reconfigure",
        }
    }
}

/// A node-and-link allocation policy.
///
/// Allocators are deliberately *stateless with respect to the cluster*: all
/// ownership lives in [`SystemState`], so the EASY-backfilling reservation
/// logic can replay future completions on a scratch clone of the state. The
/// only exception is scheme-internal bookkeeping (e.g. TA's sharing classes),
/// which is why the trait requires [`Allocator::clone_box`] — the replay
/// clones the allocator alongside the state.
pub trait Allocator: Send {
    /// Scheme name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Decide the fate of `req`: search for a placement and, on
    /// [`Decision::Admit`], claim it in `state`. A failed search returns
    /// [`Decision::Reject`] with the typed reason and the
    /// would-it-fit-empty hint; an allocator that plans migrations may
    /// instead return [`Decision::Reconfigure`] with a bounded, audited
    /// plan.
    ///
    /// On `Admit` the resources are already claimed in `state` — dropping
    /// the returned [`Allocation`] leaks them, hence `#[must_use]`.
    ///
    /// # Contract
    ///
    /// The outcome (reject, or the admitted nodes and links) depends only
    /// on the allocator's bookkeeping, `state`, `req.size` and
    /// `req.bw_tenths`, never on `req.id`. A rejecting call leaves `state`
    /// unchanged, and an admission followed by [`Allocator::release`]
    /// restores it exactly. The simulator's EASY pass reuses probe
    /// outcomes across candidates and passes on the strength of this
    /// (DESIGN §13 "Epoch memo"); `crates/core/tests/allocator_contract.rs`
    /// checks it for every scheme.
    #[must_use = "an admitted grant has already claimed nodes and links; dropping the decision leaks them"]
    fn decide(&mut self, state: &mut SystemState, req: &JobRequest) -> Decision;

    /// Two-outcome convenience over [`Allocator::decide`]: admit or
    /// reject, with `Reconfigure` degraded to its blocking rejection.
    /// Call sites that cannot (or must not) migrate resident jobs use
    /// this; everything else matches on [`Decision`] directly.
    #[must_use = "the grant has already claimed nodes and links; dropping it leaks them"]
    fn try_admit(
        &mut self,
        state: &mut SystemState,
        req: &JobRequest,
    ) -> Result<Allocation, Reject> {
        self.decide(state, req).into_result()
    }

    /// Release a previously granted allocation.
    fn release(&mut self, state: &mut SystemState, alloc: &Allocation) {
        release_allocation(state, alloc);
    }

    /// Re-apply an allocation this scheme previously produced (used when
    /// replaying hypothetical schedules onto scratch states). Schemes with
    /// internal bookkeeping (TA) must override to restore it.
    fn adopt(&mut self, state: &mut SystemState, alloc: &Allocation) {
        crate::alloc::claim_allocation(state, alloc);
    }

    /// Dispose of a spent allocation (after [`Allocator::release`]),
    /// handing its vectors back to the scheme's internal buffer pools when
    /// it keeps any. Optional: the default drops the allocation to the
    /// global heap — correctness never depends on recycling, only the
    /// steady-state zero-allocation guarantee of the pooled schemes does.
    fn recycle(&mut self, alloc: Allocation) {
        drop(alloc);
    }

    /// Search effort (backtracking steps) spent by the most recent
    /// [`Allocator::decide`] call; used by the scheduling-time analysis
    /// (Table 3) as a machine-independent effort metric.
    fn last_search_steps(&self) -> u64 {
        0
    }

    /// Clone into a boxed trait object, bookkeeping included (see the
    /// trait docs). The simulator clones once per replay of the future
    /// machine, and conservative backfilling once more per candidate
    /// instant, to hold reservations and try a job without touching the
    /// replay's own copy; so clones should be cheap, and scratch buffers
    /// need not carry over (Jigsaw's `SearchScratch` clones empty).
    fn clone_box(&self) -> Box<dyn Allocator>;

    /// A pristine allocator of the same scheme, as if newly constructed —
    /// used to answer "could this job fit an *empty* machine at all?".
    /// Schemes with internal bookkeeping (TA) must override this; for the
    /// stateless schemes a clone is already pristine.
    fn fresh_box(&self) -> Box<dyn Allocator> {
        self.clone_box()
    }
}

impl Clone for Box<dyn Allocator> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The five scheduling schemes of the paper's evaluation (§5.2).
///
/// Serialized (and parsed back) as the paper's figure label — `"Jigsaw"`,
/// `"LC+S"`, … — so JSON results stay human-readable and round-trip
/// through the same [`FromStr`](std::str::FromStr) the CLI uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Traditional, network-oblivious node allocation.
    Baseline,
    /// The paper's contribution (Algorithm 1).
    Jigsaw,
    /// Links as a Service [Zahavi et al. 2016].
    Laas,
    /// Topology-aware scheduling [Jain et al. 2017].
    Ta,
    /// Least-constrained with link sharing (bounding scheme).
    LcS,
}

impl Scheme {
    /// All schemes, in the ordering the paper's figures use.
    pub const ALL: [Scheme; 5] = [
        Scheme::Baseline,
        Scheme::LcS,
        Scheme::Jigsaw,
        Scheme::Laas,
        Scheme::Ta,
    ];

    /// The four job-isolating / interference-mitigating schemes (everything
    /// except Baseline) — the set that receives speed-up scenarios.
    pub const ISOLATING: [Scheme; 4] = [Scheme::LcS, Scheme::Jigsaw, Scheme::Laas, Scheme::Ta];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Baseline => "Baseline",
            Scheme::Jigsaw => "Jigsaw",
            Scheme::Laas => "LaaS",
            Scheme::Ta => "TA",
            Scheme::LcS => "LC+S",
        }
    }

    /// Construct the allocator for this scheme on `tree`.
    ///
    /// # Panics
    /// For the isolating schemes if `tree` is not full bandwidth — their
    /// guarantees only exist on full-bandwidth fat-trees.
    pub fn make(&self, tree: &FatTree) -> Box<dyn Allocator> {
        match self {
            Scheme::Baseline => Box::new(crate::BaselineAllocator::new(tree)),
            Scheme::Jigsaw => Box::new(crate::JigsawAllocator::new(tree)),
            Scheme::Laas => Box::new(crate::LaasAllocator::new(tree)),
            Scheme::Ta => Box::new(crate::TaAllocator::new(tree)),
            Scheme::LcS => Box::new(crate::LcsAllocator::new(tree)),
        }
    }

    /// Construct the allocator for this scheme on the tree described by
    /// `params` — the one-call factory for callers that start from
    /// structural parameters rather than a prebuilt [`FatTree`].
    ///
    /// # Panics
    /// As [`Scheme::make`], for isolating schemes on non-full-bandwidth
    /// parameters.
    pub fn build(&self, params: &FatTreeParams) -> Box<dyn Allocator> {
        self.make(&FatTree::new(*params))
    }

    /// `true` iff this scheme guarantees complete network isolation.
    pub fn is_isolating(&self) -> bool {
        matches!(self, Scheme::Jigsaw | Scheme::Laas | Scheme::Ta)
    }

    /// `true` iff jobs scheduled by this scheme benefit from isolation
    /// speed-up scenarios (§5.4.1) — everything except Baseline.
    pub fn benefits_from_isolation(&self) -> bool {
        !matches!(self, Scheme::Baseline)
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error parsing a [`Scheme`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSchemeError {
    input: String,
}

impl std::fmt::Display for ParseSchemeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown scheme `{}` (expected one of: baseline, jigsaw, laas, ta, lc+s)",
            self.input
        )
    }
}

impl std::error::Error for ParseSchemeError {}

impl std::str::FromStr for Scheme {
    type Err = ParseSchemeError;

    /// Case-insensitive; accepts both the paper labels (`LC+S`, `LaaS`)
    /// and the flag-friendly spellings (`lcs`, `laas`).
    fn from_str(s: &str) -> Result<Scheme, ParseSchemeError> {
        match s.to_ascii_lowercase().as_str() {
            "baseline" => Ok(Scheme::Baseline),
            "jigsaw" => Ok(Scheme::Jigsaw),
            "laas" => Ok(Scheme::Laas),
            "ta" => Ok(Scheme::Ta),
            "lcs" | "lc+s" | "lc-s" => Ok(Scheme::LcS),
            _ => Err(ParseSchemeError {
                input: s.to_string(),
            }),
        }
    }
}

impl Serialize for Scheme {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.name().to_string())
    }
}

impl Deserialize for Scheme {
    fn from_value(v: &serde::Value) -> Result<Scheme, serde::DeError> {
        let s = String::from_value(v)?;
        s.parse()
            .map_err(|e: ParseSchemeError| serde::DeError::custom(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper() {
        assert_eq!(Scheme::Jigsaw.name(), "Jigsaw");
        assert_eq!(Scheme::LcS.to_string(), "LC+S");
        assert_eq!(Scheme::ALL.len(), 5);
    }

    #[test]
    fn isolation_flags() {
        assert!(Scheme::Jigsaw.is_isolating());
        assert!(Scheme::Ta.is_isolating());
        assert!(!Scheme::Baseline.is_isolating());
        // LC+S allows (negligible but nonzero) sharing, so it does not
        // guarantee isolation.
        assert!(!Scheme::LcS.is_isolating());
        assert!(Scheme::LcS.benefits_from_isolation());
        assert!(!Scheme::Baseline.benefits_from_isolation());
    }

    #[test]
    fn parse_accepts_paper_and_flag_spellings() {
        for s in Scheme::ALL {
            assert_eq!(s.name().parse::<Scheme>().unwrap(), s);
            assert_eq!(s.name().to_lowercase().parse::<Scheme>().unwrap(), s);
        }
        assert_eq!("lcs".parse::<Scheme>().unwrap(), Scheme::LcS);
        assert_eq!("lc-s".parse::<Scheme>().unwrap(), Scheme::LcS);
        let err = "fifo".parse::<Scheme>().unwrap_err();
        assert!(err.to_string().contains("fifo"));
    }

    #[test]
    fn serde_round_trips_as_paper_label() {
        for s in Scheme::ALL {
            let v = s.to_value();
            assert_eq!(v, serde::Value::Str(s.name().to_string()));
            assert_eq!(Scheme::from_value(&v).unwrap(), s);
        }
        assert!(Scheme::from_value(&serde::Value::Str("nope".into())).is_err());
    }

    #[test]
    fn build_constructs_matching_allocator() {
        let params = FatTreeParams::maximal(6).unwrap();
        for s in Scheme::ALL {
            assert_eq!(s.build(&params).name(), s.name());
        }
    }
}
