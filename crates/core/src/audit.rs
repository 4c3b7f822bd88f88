//! Whole-system auditing: cross-check a set of live allocations against
//! the allocation state and the formal conditions.
//!
//! A resource manager embedding Jigsaw wants an independent invariant
//! check it can run periodically (or after crashes/reconfigurations):
//! every granted resource is recorded, nothing is double-booked, nothing
//! leaked, and every structured partition still satisfies §3.2.2. This
//! module provides that check; the simulator's tests and the integration
//! suite run it continuously.

use crate::alloc::{Allocation, Shape};
use crate::conditions::check_shape;
use jigsaw_topology::SystemState;
use std::fmt;

/// An audit finding. Any finding means the system is corrupt.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditError {
    /// Two allocations claim the same node.
    NodeDoubleBooked {
        /// The contested node id.
        node: u32,
    },
    /// Two allocations claim the same leaf↔L2 link exclusively.
    LeafLinkDoubleBooked {
        /// The contested link id.
        link: u32,
    },
    /// Two allocations claim the same L2↔spine link exclusively.
    SpineLinkDoubleBooked {
        /// The contested link id.
        link: u32,
    },
    /// The state says a node is owned by a job, but no live allocation
    /// accounts for it (a leak), or vice versa.
    OwnershipMismatch {
        /// The node id in question.
        node: u32,
    },
    /// A structured allocation violates the formal conditions.
    ConditionViolation {
        /// The offending job.
        job: u32,
        /// Human-readable violation.
        reason: String,
    },
    /// Fractional bandwidth on some link exceeds the configured cap.
    BandwidthOverCap {
        /// `true` for a leaf↔L2 link, `false` for L2↔spine.
        leaf_layer: bool,
        /// The link id.
        link: u32,
    },
    /// An allocation's node count disagrees with its shape.
    ShapeNodeMismatch {
        /// The offending job.
        job: u32,
    },
    /// An allocation names a node id outside the tree.
    NodeOutOfRange {
        /// The offending job.
        job: u32,
        /// The out-of-range node id.
        node: u32,
    },
    /// An allocation names a link id outside the tree.
    LinkOutOfRange {
        /// The offending job.
        job: u32,
        /// `true` for a leaf↔L2 link, `false` for L2↔spine.
        leaf_layer: bool,
        /// The out-of-range link id.
        link: u32,
    },
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::NodeDoubleBooked { node } => write!(f, "node {node} double-booked"),
            AuditError::LeafLinkDoubleBooked { link } => {
                write!(f, "leaf link {link} double-booked")
            }
            AuditError::SpineLinkDoubleBooked { link } => {
                write!(f, "spine link {link} double-booked")
            }
            AuditError::OwnershipMismatch { node } => {
                write!(
                    f,
                    "node {node} ownership disagrees with the live allocation set"
                )
            }
            AuditError::ConditionViolation { job, reason } => {
                write!(f, "job {job} violates the formal conditions: {reason}")
            }
            AuditError::BandwidthOverCap { leaf_layer, link } => write!(
                f,
                "{} link {link} carries bandwidth above the cap",
                if *leaf_layer { "leaf" } else { "spine" }
            ),
            AuditError::ShapeNodeMismatch { job } => {
                write!(f, "job {job}: shape and node list disagree")
            }
            AuditError::NodeOutOfRange { job, node } => {
                write!(f, "job {job} names node {node}, outside the tree")
            }
            AuditError::LinkOutOfRange {
                job,
                leaf_layer,
                link,
            } => write!(
                f,
                "job {job} names {} link {link}, outside the tree",
                if *leaf_layer { "leaf" } else { "spine" }
            ),
        }
    }
}

/// Audit `state` against the complete set of live allocations. Returns
/// every finding (empty = healthy).
///
/// `live` is any re-iterable set of borrowed allocations — a slice, a
/// `&Vec`, or a chain of borrows — so a caller assembling the set from
/// several places need not clone it. It is walked twice.
///
/// Claims are tallied in dense per-node and per-link vectors, so the cost
/// is linear in the machine plus the live set. An id outside the tree (a
/// corrupt allocation, say from a decoded journal) is itself a finding.
pub fn audit_system<'a, I>(state: &SystemState, live: I) -> Vec<AuditError>
where
    I: IntoIterator<Item = &'a Allocation> + Clone,
{
    let tree = state.tree();
    let mut errors = Vec::new();

    // --- Double-booking across allocations. --------------------------------
    // The last allocation to claim a node is its recorded owner.
    let mut node_claims: Vec<Option<u32>> = vec![None; tree.num_nodes() as usize];
    let mut leaf_link_claimed = vec![false; tree.num_leaf_links() as usize];
    let mut spine_link_claimed = vec![false; tree.num_spine_links() as usize];
    for alloc in live.clone() {
        let job = alloc.job.0;
        for n in &alloc.nodes {
            match node_claims.get_mut(n.idx()) {
                Some(slot) => {
                    if slot.replace(job).is_some() {
                        errors.push(AuditError::NodeDoubleBooked { node: n.0 });
                    }
                }
                None => errors.push(AuditError::NodeOutOfRange { job, node: n.0 }),
            }
        }
        if alloc.bw_tenths == 0 {
            for l in &alloc.leaf_links {
                match leaf_link_claimed.get_mut(l.idx()) {
                    Some(claimed) => {
                        if std::mem::replace(claimed, true) {
                            errors.push(AuditError::LeafLinkDoubleBooked { link: l.0 });
                        }
                    }
                    None => errors.push(AuditError::LinkOutOfRange {
                        job,
                        leaf_layer: true,
                        link: l.0,
                    }),
                }
            }
            for l in &alloc.spine_links {
                match spine_link_claimed.get_mut(l.idx()) {
                    Some(claimed) => {
                        if std::mem::replace(claimed, true) {
                            errors.push(AuditError::SpineLinkDoubleBooked { link: l.0 });
                        }
                    }
                    None => errors.push(AuditError::LinkOutOfRange {
                        job,
                        leaf_layer: false,
                        link: l.0,
                    }),
                }
            }
        }
    }

    // --- Ownership agreement with the state. --------------------------------
    for node in tree.nodes() {
        let state_owner = state.node_owner(node).map(|j| j.0);
        if state_owner != node_claims[node.idx()] {
            errors.push(AuditError::OwnershipMismatch { node: node.0 });
        }
    }

    // --- Per-allocation structure. -------------------------------------------
    for alloc in live {
        match &alloc.shape {
            Shape::Unstructured => {}
            shape => {
                if let Err(v) = check_shape(tree, shape) {
                    errors.push(AuditError::ConditionViolation {
                        job: alloc.job.0,
                        reason: v.to_string(),
                    });
                }
                if shape.node_count() as usize != alloc.nodes.len() {
                    errors.push(AuditError::ShapeNodeMismatch { job: alloc.job.0 });
                }
            }
        }
    }

    // --- Bandwidth caps. --------------------------------------------------------
    let cap = state.bandwidth().cap_tenths;
    for leaf in tree.leaves() {
        for pos in 0..tree.l2_per_pod() {
            let link = tree.leaf_link(leaf, pos);
            if state.leaf_link_bw_used(link) > cap {
                errors.push(AuditError::BandwidthOverCap {
                    leaf_layer: true,
                    link: link.0,
                });
            }
        }
    }
    for pod in tree.pods() {
        for pos in 0..tree.l2_per_pod() {
            for slot in 0..tree.spines_per_group() {
                let link = tree.spine_link_at(pod, pos, slot);
                if state.spine_link_bw_used(link) > cap {
                    errors.push(AuditError::BandwidthOverCap {
                        leaf_layer: false,
                        link: link.0,
                    });
                }
            }
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::Allocator;
    use crate::{JigsawAllocator, JobRequest, Scheme};
    use jigsaw_topology::ids::JobId;
    use jigsaw_topology::FatTree;

    #[test]
    fn healthy_system_audits_clean() {
        let tree = FatTree::maximal(8).unwrap();
        let mut state = SystemState::new(tree);
        let mut live = Vec::new();
        for kind in [Scheme::Jigsaw, Scheme::Jigsaw] {
            let mut alloc = kind.make(&tree);
            for (i, size) in [
                (live.len() as u32 * 10, 13u32),
                (live.len() as u32 * 10 + 1, 7),
            ] {
                if let Ok(a) = alloc.try_admit(&mut state, &JobRequest::new(JobId(i), size)) {
                    live.push(a);
                }
            }
        }
        assert!(live.len() >= 3);
        assert_eq!(audit_system(&state, &live), Vec::new());
    }

    #[test]
    fn leak_detected() {
        let tree = FatTree::maximal(4).unwrap();
        let mut state = SystemState::new(tree);
        let mut jig = JigsawAllocator::new(&tree);
        let a = jig
            .try_admit(&mut state, &JobRequest::new(JobId(1), 4))
            .unwrap();
        // Forget the allocation: state says owned, live set says nothing.
        let errors = audit_system(&state, &[]);
        assert!(errors
            .iter()
            .any(|e| matches!(e, AuditError::OwnershipMismatch { .. })));
        // And the reverse: live set claims nodes the state thinks are free.
        jig.release(&mut state, &a);
        let errors = audit_system(&state, &[a]);
        assert!(errors
            .iter()
            .any(|e| matches!(e, AuditError::OwnershipMismatch { .. })));
    }

    #[test]
    fn double_booking_detected() {
        let tree = FatTree::maximal(4).unwrap();
        let mut state = SystemState::new(tree);
        let mut jig = JigsawAllocator::new(&tree);
        let a = jig
            .try_admit(&mut state, &JobRequest::new(JobId(1), 4))
            .unwrap();
        let mut b = a.clone();
        b.job = JobId(2);
        let errors = audit_system(&state, &[a, b]);
        assert!(errors
            .iter()
            .any(|e| matches!(e, AuditError::NodeDoubleBooked { .. })));
    }

    #[test]
    fn tampered_shape_detected() {
        let tree = FatTree::maximal(8).unwrap();
        let mut state = SystemState::new(tree);
        let mut jig = JigsawAllocator::new(&tree);
        let mut a = jig
            .try_admit(&mut state, &JobRequest::new(JobId(1), 11))
            .unwrap();
        if let Shape::TwoLevel { l2_set, .. } = &mut a.shape {
            *l2_set = 0b1; // unbalanced uplinks
        }
        let errors = audit_system(&state, &[a]);
        assert!(errors
            .iter()
            .any(|e| matches!(e, AuditError::ConditionViolation { .. })));
    }

    #[test]
    fn shape_node_mismatch_detected() {
        let tree = FatTree::maximal(4).unwrap();
        let mut state = SystemState::new(tree);
        let mut jig = JigsawAllocator::new(&tree);
        let mut a = jig
            .try_admit(&mut state, &JobRequest::new(JobId(1), 2))
            .unwrap();
        // Claim one more node behind the audit's back — both a mismatch and
        // an ownership error.
        let extra = state.first_free_node().unwrap();
        state.claim_node(extra, JobId(1));
        a.nodes.push(extra);
        let errors = audit_system(&state, &[a]);
        assert!(errors
            .iter()
            .any(|e| matches!(e, AuditError::ShapeNodeMismatch { .. })));
    }

    #[test]
    fn out_of_range_node_is_a_finding() {
        let tree = FatTree::maximal(4).unwrap();
        let mut state = SystemState::new(tree);
        let mut jig = JigsawAllocator::new(&tree);
        let mut a = jig
            .try_admit(&mut state, &JobRequest::new(JobId(1), 2))
            .unwrap();
        let bogus = jigsaw_topology::ids::NodeId(tree.num_nodes() + 7);
        a.nodes.push(bogus);
        let errors = audit_system(&state, &[a]);
        assert!(
            errors.contains(&AuditError::NodeOutOfRange {
                job: 1,
                node: bogus.0
            }),
            "{errors:?}"
        );
    }

    #[test]
    fn out_of_range_links_are_findings() {
        let tree = FatTree::maximal(8).unwrap();
        let mut state = SystemState::new(tree);
        let mut jig = JigsawAllocator::new(&tree);
        // A multi-pod job holds exclusive leaf and spine links.
        let mut a = jig
            .try_admit(&mut state, &JobRequest::new(JobId(3), 40))
            .unwrap();
        assert_eq!(a.bw_tenths, 0);
        let leaf = jigsaw_topology::ids::LeafLinkId(tree.num_leaf_links());
        let spine = jigsaw_topology::ids::SpineLinkId(u32::MAX);
        a.leaf_links.push(leaf);
        a.spine_links.push(spine);
        let errors = audit_system(&state, &[a]);
        for e in [
            AuditError::LinkOutOfRange {
                job: 3,
                leaf_layer: true,
                link: leaf.0,
            },
            AuditError::LinkOutOfRange {
                job: 3,
                leaf_layer: false,
                link: spine.0,
            },
        ] {
            assert!(errors.contains(&e), "missing {e}: {errors:?}");
        }
    }
}
