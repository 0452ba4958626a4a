//! # optimcast-topology
//!
//! Network substrates for the ICPP'97 multicast study: the paper evaluates
//! k-binomial multicast trees on a **64-processor irregular switch-based
//! network built from 16 eight-port switches** with up\*/down\* routing, using
//! the Chain Concatenated Ordering (CCO) as the base node ordering. This
//! crate builds all of that, plus the regular k-ary n-cube substrate the
//! paper names as the other application domain (dimension-ordered chains).
//!
//! * [`graph`] — hosts, switches, links, and directed channels;
//! * [`irregular`] — seeded random irregular switch networks with the
//!   paper's shape (16 switches × 8 ports, 64 hosts);
//! * [`updown`] — up\*/down\* routing on irregular networks;
//! * [`cube`] — k-ary n-cube topologies with dimension-ordered routing;
//! * [`ordering`] — CCO, dimension-ordered, and random node orderings;
//! * [`contention`] — link-sharing analysis between paths, the
//!   contention-free-ordering test of McKinley et al. (TPDS'94), and
//!   per-step schedule contention counts.
//!
//! The central abstraction is the [`Network`] trait: anything that can route
//! a packet between two hosts as a sequence of directed [`graph::ChannelId`]s.

#![warn(unreachable_pub)]

pub mod contention;
pub mod cube;
pub mod fabric;
pub mod graph;
pub mod irregular;
pub mod mesh;
pub mod ordering;
pub mod updown;

use graph::{ChannelId, HostId, Topology};

/// A routed network: hosts, directed channels, and a deterministic route
/// between any pair of hosts.
pub trait Network {
    /// Number of hosts (processors) in the network.
    fn num_hosts(&self) -> u32;

    /// Total number of directed channels (for occupancy vectors).
    fn num_channels(&self) -> u32;

    /// The deterministic route from `from` to `to` as directed channels,
    /// including the source injection and destination ejection channels.
    /// Empty iff `from == to`.
    fn route(&self, from: HostId, to: HostId) -> Vec<ChannelId>;

    /// The underlying physical topology.
    fn topology(&self) -> &Topology;

    /// Short human-readable description.
    fn describe(&self) -> String;

    /// Routes for a batch of host pairs, CSR-packed in pair order: the
    /// route of `pairs[i]` is `channels[offsets[i]..offsets[i + 1]]`.
    /// [`Self::bulk_routes_into`] with fresh storage.
    fn bulk_routes(&self, pairs: &[(HostId, HostId)]) -> (Vec<u32>, Vec<ChannelId>) {
        let (mut offsets, mut channels) = (Vec::new(), Vec::new());
        self.bulk_routes_into(
            pairs,
            &mut RouteScratch::default(),
            &mut offsets,
            &mut channels,
        );
        (offsets, channels)
    }

    /// [`Self::bulk_routes`] written over `offsets` and `channels`, with
    /// `scratch` as working storage, so a caller routing batch after batch
    /// reuses all three.
    ///
    /// The default delegates to [`Self::route`] per pair; substrates whose
    /// routing amortizes over a shared source (up\*/down\* single-source
    /// passes) override this so one multicast job's route build is O(n)
    /// passes instead of O(n) independent searches. Overrides must produce
    /// byte-identical channels to the per-pair default.
    fn bulk_routes_into(
        &self,
        pairs: &[(HostId, HostId)],
        _scratch: &mut RouteScratch,
        offsets: &mut Vec<u32>,
        channels: &mut Vec<ChannelId>,
    ) {
        offsets.clear();
        offsets.push(0u32);
        channels.clear();
        for &(from, to) in pairs {
            channels.extend(self.route(from, to));
            offsets.push(channels.len() as u32);
        }
    }
}

impl<N: Network + ?Sized> Network for &N {
    fn num_hosts(&self) -> u32 {
        (**self).num_hosts()
    }
    fn num_channels(&self) -> u32 {
        (**self).num_channels()
    }
    fn route(&self, from: HostId, to: HostId) -> Vec<ChannelId> {
        (**self).route(from, to)
    }
    fn topology(&self) -> &Topology {
        (**self).topology()
    }
    fn describe(&self) -> String {
        (**self).describe()
    }
    fn bulk_routes_into(
        &self,
        pairs: &[(HostId, HostId)],
        scratch: &mut RouteScratch,
        offsets: &mut Vec<u32>,
        channels: &mut Vec<ChannelId>,
    ) {
        (**self).bulk_routes_into(pairs, scratch, offsets, channels);
    }
}

pub use cube::CubeNetwork;
pub use fabric::{FabricConfig, FabricNetwork};
pub use graph::{Endpoint, LinkId, SwitchId};
pub use irregular::{IrregularConfig, IrregularNetwork};
pub use mesh::MeshNetwork;
pub use ordering::Ordering;
pub use updown::RouteScratch;
