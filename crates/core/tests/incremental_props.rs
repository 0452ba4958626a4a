//! Property battery for the incremental membership operations
//! ([`MulticastTree::add_rank`] for a join, [`MulticastTree::remove_rank`]
//! for a leave, and the [`Membership`] layer composing them). For random
//! k-binomial trees and random join/leave sequences —
//!
//! * every splice keeps the fan-out within the bound `k` and keeps the
//!   tree a valid spanning tree of exactly the current membership;
//! * `add_rank` splices in place, preserving every existing edge and
//!   send order;
//! * a leave spliced in place equals [`MulticastTree::repair`] of the
//!   leaving rank, with the member maps renumbered through its
//!   `new_to_old`;
//! * after any operation sequence the group is *equivalent to a
//!   from-scratch rebuild*: the member set matches an independently
//!   maintained model set, and the spliced tree admits a complete FPFS
//!   schedule (every member reached, `m·(len−1)` sends) just like a fresh
//!   k-binomial tree over the same membership;
//! * `leave ∘ join` of the same member is a membership identity.
//!
//! Random sequences are driven from plain integer draws (the vendored
//! proptest supports integer-range strategies): a `u64` op stream is
//! consumed 8 bits per step to pick a member, and the toggle direction
//! (join vs leave) follows from current membership — so every generated
//! sequence is valid by construction.

use optimcast_core::prelude::*;
use proptest::prelude::*;
use std::collections::HashSet;

/// Full-width `u64` strategy (the vendored proptest has no `num` module).
const ANY_U64: std::ops::Range<u64> = 0..u64::MAX;

/// A fresh group: members `0..n` on a k-binomial tree over `n` ranks in a
/// universe of `universe` ids.
fn group(n: u32, universe: u32, k: u32) -> Membership {
    let members: Vec<u32> = (0..n).collect();
    Membership::new(kbinomial_tree(n, k), &members, universe, k).unwrap()
}

/// Applies `steps` toggles drawn from `opstream` (8 bits each) to `g`,
/// mirroring them into `model`. Leaves that would empty the group (only
/// the source left) are skipped, like a stream's churn guard.
fn drive(g: &mut Membership, model: &mut HashSet<u32>, opstream: u64, steps: u32) {
    let universe = g.universe();
    for i in 0..steps {
        let byte = (opstream >> ((i % 8) * 8)) & 0xFF;
        let member = 1 + ((byte + u64::from(i)) % u64::from(universe - 1)) as u32;
        if g.is_member(member) {
            if g.len() > 2 {
                g.leave(member).unwrap();
                model.remove(&member);
            }
        } else {
            g.join(member).unwrap();
            model.insert(member);
        }
    }
}

/// The membership invariants: maps mutually inverse, tree spans exactly
/// the members, fan-out within bound.
fn assert_group_invariants(g: &Membership) -> Result<(), String> {
    g.tree()
        .validate()
        .map_err(|e| format!("invalid tree after splice: {e}"))?;
    prop_assert_eq!(g.tree().len(), g.len());
    for (r, &u) in g.members().iter().enumerate() {
        prop_assert_eq!(g.rank_of(u), Some(Rank(r as u32)));
        prop_assert_eq!(g.member_of(Rank(r as u32)), u);
    }
    let bound = g.fan_out().max(1);
    prop_assert!(
        g.tree().max_degree() <= bound,
        "fan-out {} exceeds bound {}",
        g.tree().max_degree(),
        bound
    );
    Ok(())
}

proptest! {
    /// `add_rank` splices in place: it returns rank `n`, hangs it under a
    /// node that had spare fan-out, keeps the bound, and leaves every old
    /// child list as it was.
    #[test]
    fn add_rank_preserves_structure_and_bound(n in 1u32..48, k in 1u32..6) {
        let old = kbinomial_tree(n, k);
        let bound = old.max_degree().max(k).max(1);
        let mut tree = old.clone();
        let joined = tree.add_rank(k);
        tree.validate().expect("spliced tree invalid");
        prop_assert_eq!(joined, Rank(n));
        prop_assert_eq!(tree.len(), old.len() + 1);
        let parent = tree.parent(joined).expect("the new rank is attached");
        prop_assert!(old.child_count(parent) < k.max(1), "{} had no spare slot", parent);
        prop_assert!(tree.max_degree() <= bound);
        // Every original parent's child list is unchanged, bar the new leaf.
        for r in 0..n {
            let new: Vec<Rank> = tree
                .children(Rank(r))
                .iter()
                .copied()
                .filter(|&c| c != joined)
                .collect();
            prop_assert_eq!(old.children(Rank(r)), &new[..], "send order of r{} changed", r);
        }
    }

    /// The in-place leave equals the `repair(&[rank])` path at every step
    /// of a random join/leave sequence: the same tree under `PartialEq`,
    /// the same members in rank order, and the same `rank_of` over the
    /// whole universe. The reference joins with `add_rank` and leaves by
    /// rebuilding through `repair`, renumbering its maps through
    /// `new_to_old`.
    #[test]
    fn leave_in_place_equals_repair(
        n in 2u32..65,
        extra in 1u32..32,
        k in 1u32..6,
        opstream in ANY_U64,
        steps in 1u32..48,
    ) {
        let universe = n + extra;
        let mut g = group(n, universe, k);
        let mut tree = kbinomial_tree(n, k);
        let mut member_of: Vec<u32> = (0..n).collect();
        for i in 0..steps {
            let byte = (opstream.rotate_left(i * 7) & 0xFF) as u32;
            let member = 1 + (byte + i) % (universe - 1);
            if let Some(pos) = member_of.iter().position(|&u| u == member) {
                if member_of.len() <= 2 {
                    continue;
                }
                let rep = tree.repair(&[Rank(pos as u32)]).unwrap();
                member_of = rep.new_to_old.iter().map(|r| member_of[r.index()]).collect();
                tree = rep.tree;
                g.leave(member).unwrap();
            } else {
                tree.add_rank(k);
                member_of.push(member);
                g.join(member).unwrap();
            }
            prop_assert_eq!(g.tree(), &tree, "step {}: tree differs", i);
            prop_assert_eq!(g.members(), &member_of[..], "step {}", i);
            for u in 0..universe {
                let expect = member_of.iter().position(|&v| v == u).map(|r| Rank(r as u32));
                prop_assert_eq!(g.rank_of(u), expect, "step {}: rank of member {}", i, u);
            }
        }
    }

    /// Random join/leave sequences keep the maps inverse, the tree spanning
    /// the current membership, and the fan-out within bound, at every step.
    #[test]
    fn op_sequences_keep_invariants(
        n in 2u32..16,
        extra in 1u32..16,
        k in 1u32..5,
        opstream in ANY_U64,
        steps in 1u32..24,
    ) {
        let universe = n + extra;
        let mut g = group(n, universe, k);
        let mut model: HashSet<u32> = (0..n).collect();
        let per_step = steps.min(8);
        for chunk in 0..steps.div_ceil(per_step) {
            drive(&mut g, &mut model, opstream.rotate_left(chunk * 13), per_step);
            assert_group_invariants(&g)?;
        }
    }

    /// After any operation sequence the group is equivalent to a rebuild:
    /// the member set matches the model set, and the spliced tree admits
    /// the same complete FPFS schedule shape a from-scratch k-binomial
    /// tree over that membership does (every member reached, one send per
    /// edge per packet).
    #[test]
    fn op_sequences_are_equivalent_to_rebuild(
        n in 2u32..16,
        extra in 1u32..16,
        k in 1u32..5,
        opstream in ANY_U64,
        steps in 1u32..32,
        m in 1u32..5,
    ) {
        let universe = n + extra;
        let mut g = group(n, universe, k);
        let mut model: HashSet<u32> = (0..n).collect();
        drive(&mut g, &mut model, opstream, steps);

        // Same member set as the model (what a rebuild would span).
        let members: HashSet<u32> = g.members().iter().copied().collect();
        prop_assert_eq!(&members, &model);
        prop_assert_eq!(g.members().len(), members.len(), "duplicate members");

        // Both trees admit complete m-packet FPFS schedules over the same
        // participant count: every rank completes, m·(len−1) sends total.
        let rebuilt = kbinomial_tree(g.len() as u32, k);
        for tree in [g.tree(), &rebuilt] {
            let sched = fpfs_schedule(tree, m);
            prop_assert_eq!(sched.events().len(), (m as usize) * (tree.len() - 1));
            for r in 1..tree.len() {
                prop_assert!(sched.message_completion(Rank(r as u32)) > 0);
            }
        }
        // The spliced tree obeys the same fan-out bound the rebuild does.
        prop_assert!(g.tree().max_degree() <= rebuilt.max_degree().max(k));
    }

    /// `leave ∘ join` of the same member is a membership identity: the
    /// member set (and every member's presence) is exactly as before.
    #[test]
    fn leave_after_join_is_membership_identity(
        n in 2u32..24,
        extra in 1u32..8,
        k in 1u32..5,
        pick in ANY_U64,
    ) {
        let universe = n + extra;
        let mut g = group(n, universe, k);
        let newcomer = n + (pick % u64::from(extra)) as u32;
        let before: HashSet<u32> = g.members().iter().copied().collect();

        g.join(newcomer).unwrap();
        prop_assert!(g.is_member(newcomer));
        g.leave(newcomer).unwrap();

        let after: HashSet<u32> = g.members().iter().copied().collect();
        prop_assert_eq!(before, after);
        assert_group_invariants(&g)?;

        // And the other composition order on an existing member: leave
        // then re-join restores the same member set too.
        let resident = 1 + (pick % u64::from(n - 1)) as u32;
        let before: HashSet<u32> = g.members().iter().copied().collect();
        g.leave(resident).unwrap();
        prop_assert!(!g.is_member(resident));
        g.join(resident).unwrap();
        let after: HashSet<u32> = g.members().iter().copied().collect();
        prop_assert_eq!(before, after);
    }

    /// Misuse is a typed error and never corrupts the group.
    #[test]
    fn invalid_operations_are_typed_errors(n in 2u32..16, k in 1u32..5) {
        let mut g = group(n, n + 4, k);
        prop_assert_eq!(g.join(0), Err(MembershipError::AlreadyMember(0)));
        prop_assert_eq!(g.join(n + 4), Err(MembershipError::UnknownMember(n + 4)));
        prop_assert_eq!(g.leave(0), Err(MembershipError::SourceImmutable));
        prop_assert_eq!(g.leave(n), Err(MembershipError::NotMember(n)));
        prop_assert_eq!(g.leave(n + 9), Err(MembershipError::UnknownMember(n + 9)));
        assert_group_invariants(&g)?;
        // The splice a leave runs rejects the same misuse and leaves the
        // tree as it was.
        let mut tree = g.tree().clone();
        prop_assert_eq!(tree.remove_rank(Rank::SOURCE), Err(RepairError::SourceFailed));
        prop_assert_eq!(
            tree.remove_rank(Rank(n)),
            Err(RepairError::UnknownRank(Rank(n)))
        );
        prop_assert_eq!(&tree, g.tree());
    }
}
