//! Dynamic multicast group membership over incremental tree splices.
//!
//! A long-running stream multicasts to a group whose members join and
//! leave mid-stream. The tree layer's ranks are *dense* (`0..n`, source at
//! 0) and get renumbered by every removal, so a stream needs a stable
//! identity space on top: [`Membership`] names every potential participant
//! by a **member id** in a fixed universe `0..universe` (member 0 is the
//! source) and maintains the member↔rank correspondence across
//! splices, both in place: a join is [`MulticastTree::add_rank`], which
//! attaches the new member as the highest rank, and a leave is
//! [`MulticastTree::remove_rank`], which equals
//! [`MulticastTree::repair`] of the one leaving rank.
//!
//! Every splice preserves the configured fan-out bound `k` and the send
//! order of surviving edges. A join moves no rank; a leave shifts every
//! rank above the leaver down by one, and the maps here shift with it, so
//! after any join/leave sequence `rank_of`/`member_of` are mutually inverse
//! over the current members — the invariants
//! `crates/core/tests/incremental_props.rs` pins. Neither splice allocates
//! once the group's vectors have grown to its largest size.

use crate::tree::{MulticastTree, Rank};
use std::fmt;

/// A multicast group with stable member ids over a churning rank space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Membership {
    tree: MulticastTree,
    k: u32,
    /// `member_of[rank] = member id` for the current dense ranks.
    member_of: Vec<u32>,
    /// `rank_of[member] = Some(rank)` for current members, dense over the
    /// universe.
    rank_of: Vec<Option<Rank>>,
}

/// Why a membership operation was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipError {
    /// The member id is outside the declared universe.
    UnknownMember(u32),
    /// A join for a member already in the group.
    AlreadyMember(u32),
    /// A leave for a member not in the group.
    NotMember(u32),
    /// Member 0 (the source) cannot leave.
    SourceImmutable,
    /// Construction: the initial tree does not span the initial members.
    WrongSpan {
        /// Ranks in the supplied tree.
        tree: usize,
        /// Initial member count.
        members: usize,
    },
    /// Construction: the initial member list repeats an id, omits the
    /// source at position 0, or exceeds the universe.
    BadInitialMembers(&'static str),
}

impl fmt::Display for MembershipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MembershipError::UnknownMember(u) => write!(f, "member {u} is outside the universe"),
            MembershipError::AlreadyMember(u) => write!(f, "member {u} is already in the group"),
            MembershipError::NotMember(u) => write!(f, "member {u} is not in the group"),
            MembershipError::SourceImmutable => write!(f, "the source (member 0) cannot leave"),
            MembershipError::WrongSpan { tree, members } => {
                write!(
                    f,
                    "tree spans {tree} ranks but {members} members were listed"
                )
            }
            MembershipError::BadInitialMembers(why) => write!(f, "bad initial members: {why}"),
        }
    }
}

impl std::error::Error for MembershipError {}

impl Membership {
    /// Wraps an initial tree whose rank `i` is bound to `members[i]`.
    /// `members[0]` must be 0 (the source), ids must be distinct and below
    /// `universe`, and the tree must span exactly `members.len()` ranks.
    /// `k` is the fan-out bound every later splice preserves (at least 1;
    /// a smaller bound than the tree's current maximum degree is accepted
    /// but splices then use the tree's own `max_degree` via the repair
    /// policy — pass the tree's construction `k` for exact behaviour).
    ///
    /// # Errors
    ///
    /// [`MembershipError::WrongSpan`] or
    /// [`MembershipError::BadInitialMembers`].
    pub fn new(
        tree: MulticastTree,
        members: &[u32],
        universe: u32,
        k: u32,
    ) -> Result<Self, MembershipError> {
        if tree.len() != members.len() {
            return Err(MembershipError::WrongSpan {
                tree: tree.len(),
                members: members.len(),
            });
        }
        if members.first() != Some(&0) {
            return Err(MembershipError::BadInitialMembers(
                "rank 0 must be member 0 (the source)",
            ));
        }
        let mut rank_of: Vec<Option<Rank>> = vec![None; universe as usize];
        for (r, &u) in members.iter().enumerate() {
            if u >= universe {
                return Err(MembershipError::BadInitialMembers(
                    "a member id exceeds the universe",
                ));
            }
            if rank_of[u as usize].is_some() {
                return Err(MembershipError::BadInitialMembers("duplicate member id"));
            }
            rank_of[u as usize] = Some(Rank(r as u32));
        }
        Ok(Membership {
            tree,
            k: k.max(1),
            member_of: members.to_vec(),
            rank_of,
        })
    }

    /// The current multicast tree (rank 0 = source).
    pub fn tree(&self) -> &MulticastTree {
        &self.tree
    }

    /// The fan-out bound splices preserve.
    pub fn fan_out(&self) -> u32 {
        self.k
    }

    /// Number of potential participants (member-id space).
    pub fn universe(&self) -> u32 {
        self.rank_of.len() as u32
    }

    /// Current group size (source included).
    pub fn len(&self) -> usize {
        self.member_of.len()
    }

    /// True when only the source remains.
    pub fn is_empty(&self) -> bool {
        self.len() == 1
    }

    /// Whether `member` is currently in the group.
    pub fn is_member(&self, member: u32) -> bool {
        self.rank_of
            .get(member as usize)
            .is_some_and(|r| r.is_some())
    }

    /// The current rank of `member`, if in the group.
    pub fn rank_of(&self, member: u32) -> Option<Rank> {
        self.rank_of.get(member as usize).copied().flatten()
    }

    /// The member bound to the current rank `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range for the current tree.
    pub fn member_of(&self, r: Rank) -> u32 {
        self.member_of[r.index()]
    }

    /// Current member ids in rank order (source first).
    pub fn members(&self) -> &[u32] {
        &self.member_of
    }

    /// Splices `member` into the group in place via
    /// [`MulticastTree::add_rank`]; the new member becomes the highest rank.
    ///
    /// # Errors
    ///
    /// [`MembershipError::UnknownMember`] or
    /// [`MembershipError::AlreadyMember`].
    pub fn join(&mut self, member: u32) -> Result<(), MembershipError> {
        if member as usize >= self.rank_of.len() {
            return Err(MembershipError::UnknownMember(member));
        }
        if self.rank_of[member as usize].is_some() {
            return Err(MembershipError::AlreadyMember(member));
        }
        self.rank_of[member as usize] = Some(self.tree.add_rank(self.k));
        self.member_of.push(member);
        Ok(())
    }

    /// Splices `member` out of the group in place via
    /// [`MulticastTree::remove_rank`] of its rank; every member ranked
    /// above it moves down one rank. The result equals
    /// [`MulticastTree::repair`] of that rank with the ranks mapped through
    /// its `new_to_old`.
    ///
    /// # Errors
    ///
    /// [`MembershipError::UnknownMember`],
    /// [`MembershipError::SourceImmutable`], or
    /// [`MembershipError::NotMember`].
    pub fn leave(&mut self, member: u32) -> Result<(), MembershipError> {
        if member as usize >= self.rank_of.len() {
            return Err(MembershipError::UnknownMember(member));
        }
        if member == 0 {
            return Err(MembershipError::SourceImmutable);
        }
        let Some(rank) = self.rank_of[member as usize] else {
            return Err(MembershipError::NotMember(member));
        };
        // A tracked non-source member sits at an in-range rank other than
        // 0, the only ranks `remove_rank` rejects; a rejection leaves the
        // group untouched.
        self.tree
            .remove_rank(rank)
            .map_err(|_| MembershipError::NotMember(member))?;
        self.rank_of[member as usize] = None;
        self.member_of.remove(rank.index());
        for (r, &u) in self.member_of.iter().enumerate().skip(rank.index()) {
            self.rank_of[u as usize] = Some(Rank(r as u32));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::kbinomial_tree;

    fn group(n: u32, universe: u32, k: u32) -> Membership {
        let members: Vec<u32> = (0..n).collect();
        Membership::new(kbinomial_tree(n, k), &members, universe, k).unwrap()
    }

    #[test]
    fn construction_validates_members() {
        let t = kbinomial_tree(4, 2);
        assert_eq!(
            Membership::new(t.clone(), &[0, 1, 2], 8, 2),
            Err(MembershipError::WrongSpan {
                tree: 4,
                members: 3
            })
        );
        assert!(matches!(
            Membership::new(t.clone(), &[1, 0, 2, 3], 8, 2),
            Err(MembershipError::BadInitialMembers(_))
        ));
        assert!(matches!(
            Membership::new(t.clone(), &[0, 1, 2, 9], 8, 2),
            Err(MembershipError::BadInitialMembers(_))
        ));
        assert!(matches!(
            Membership::new(t, &[0, 1, 2, 2], 8, 2),
            Err(MembershipError::BadInitialMembers(_))
        ));
    }

    #[test]
    fn join_then_leave_round_trips_membership() {
        let mut g = group(4, 8, 2);
        assert!(!g.is_member(6));
        g.join(6).unwrap();
        assert_eq!(g.len(), 5);
        assert_eq!(g.rank_of(6), Some(Rank(4)));
        assert_eq!(g.member_of(Rank(4)), 6);
        g.tree().validate().unwrap();

        g.leave(6).unwrap();
        assert_eq!(g.len(), 4);
        assert!(!g.is_member(6));
        assert_eq!(g.members(), &[0, 1, 2, 3]);
        g.tree().validate().unwrap();
    }

    #[test]
    fn leave_remaps_surviving_ranks() {
        let mut g = group(6, 6, 2);
        g.leave(2).unwrap();
        assert_eq!(g.members(), &[0, 1, 3, 4, 5]);
        for (r, &u) in g.members().iter().enumerate() {
            assert_eq!(g.rank_of(u), Some(Rank(r as u32)));
        }
        assert!(g.tree().max_degree() <= 2.max(g.fan_out()));
    }

    #[test]
    fn errors_are_typed() {
        let mut g = group(3, 5, 2);
        assert_eq!(g.join(1), Err(MembershipError::AlreadyMember(1)));
        assert_eq!(g.join(5), Err(MembershipError::UnknownMember(5)));
        assert_eq!(g.leave(0), Err(MembershipError::SourceImmutable));
        assert_eq!(g.leave(4), Err(MembershipError::NotMember(4)));
        assert_eq!(g.leave(9), Err(MembershipError::UnknownMember(9)));
    }
}
