//! Property battery for [`MulticastTree::repair`] / `repair_partial`: the
//! invariants live mid-run repair leans on. For random k-binomial trees and
//! random crash sets —
//!
//! * the repaired tree's fan-out never exceeds the original `k`;
//! * every survivor stays reachable from the source (the repaired tree is a
//!   valid spanning tree of exactly the survivors);
//! * `new_to_old` lists exactly the surviving old ranks, in order, so it is
//!   a bijection from the new rank space onto the survivors;
//! * repairing with an empty failure set is the identity;
//! * `repair_partial` additionally excludes already-delivered ranks without
//!   treating them as failures.
//!
//! Random sets are drawn as bitmasks (the vendored proptest supports
//! integer-range strategies): bit `r` of the mask selects rank `r`, so the
//! source (bit 0 is ignored) can never be drawn into a crash set.

use optimcast_core::prelude::*;
use proptest::prelude::*;
use std::collections::HashSet;

/// The destination ranks selected by `mask` (bit `r` ⇒ rank `r`; the source
/// is never included).
fn subset(mask: u64, n: u32) -> Vec<Rank> {
    (1..n).filter(|&r| (mask >> r) & 1 == 1).map(Rank).collect()
}

/// Every rank of `tree` must be reachable from the source.
fn assert_spanning(tree: &MulticastTree) -> Result<(), String> {
    tree.validate()
        .map_err(|e| format!("repaired tree invalid: {e:?}"))?;
    let reached: HashSet<Rank> = tree.dfs_preorder().into_iter().collect();
    prop_assert_eq!(reached.len(), tree.len(), "orphaned survivors remain");
    Ok(())
}

proptest! {
    #[test]
    fn repair_preserves_fanout_and_reachability(
        n in 2u32..48,
        k in 1u32..6,
        fmask in 0u64..(1 << 48),
    ) {
        let tree = kbinomial_tree(n, k);
        let failed = subset(fmask, n);
        let bound = tree.max_degree().max(1) as usize;
        let rep = tree.repair(&failed).expect("valid crash set rejected");
        prop_assert_eq!(rep.tree.len(), tree.len() - failed.len());
        assert_spanning(&rep.tree)?;
        for r in rep.tree.dfs_preorder() {
            prop_assert!(
                rep.tree.children(r).len() <= bound,
                "rank {} exceeds the fan-out bound k = {}",
                r,
                bound
            );
        }
    }

    #[test]
    fn rank_maps_are_inverse_bijections(
        n in 2u32..48,
        k in 1u32..6,
        fmask in 0u64..(1 << 48),
    ) {
        let tree = kbinomial_tree(n, k);
        let failed = subset(fmask, n);
        let rep = tree.repair(&failed).expect("valid crash set rejected");
        // Exactly the survivors, densely renumbered in old-rank order.
        let survivors: Vec<Rank> = (0..n).map(Rank).filter(|r| !failed.contains(r)).collect();
        prop_assert_eq!(&rep.new_to_old, &survivors);
        prop_assert_eq!(rep.new_to_old.len(), rep.tree.len());
    }

    #[test]
    fn empty_failure_set_is_identity(n in 2u32..48, k in 1u32..6) {
        let tree = kbinomial_tree(n, k);
        let rep = tree.repair(&[]).expect("empty failure set rejected");
        prop_assert_eq!(&rep.tree, &tree);
        prop_assert_eq!(rep.reattached, 0);
        prop_assert_eq!(rep.new_to_old, (0..n).map(Rank).collect::<Vec<_>>());
    }

    #[test]
    fn partial_repair_spans_exactly_the_undelivered_survivors(
        n in 2u32..48,
        k in 1u32..6,
        fmask in 0u64..(1 << 48),
        dmask in 0u64..(1 << 48),
    ) {
        let tree = kbinomial_tree(n, k);
        let failed = subset(fmask, n);
        let delivered: Vec<Rank> = subset(dmask, n)
            .into_iter()
            .filter(|r| !failed.contains(r))
            .collect();
        let bound = tree.max_degree().max(1) as usize;
        let rep = tree
            .repair_partial(&failed, &delivered)
            .expect("valid exclusion sets rejected");
        prop_assert_eq!(
            rep.tree.len(),
            tree.len() - failed.len() - delivered.len()
        );
        assert_spanning(&rep.tree)?;
        let kept: Vec<Rank> = (0..n)
            .map(Rank)
            .filter(|r| !failed.contains(r) && !delivered.contains(r))
            .collect();
        prop_assert_eq!(&rep.new_to_old, &kept);
        for r in rep.tree.dfs_preorder() {
            prop_assert!(rep.tree.children(r).len() <= bound);
        }
    }

    #[test]
    fn bad_failure_sets_are_typed_errors(n in 2u32..48, k in 1u32..6) {
        let tree = kbinomial_tree(n, k);
        prop_assert_eq!(
            tree.repair(&[Rank::SOURCE]),
            Err(RepairError::SourceFailed)
        );
        prop_assert_eq!(
            tree.repair(&[Rank(n)]),
            Err(RepairError::UnknownRank(Rank(n)))
        );
        // A delivered source is a no-op, not an error: the source always
        // holds the data.
        let rep = tree.repair_partial(&[], &[Rank::SOURCE]).unwrap();
        prop_assert_eq!(&rep.tree, &tree);
    }
}
