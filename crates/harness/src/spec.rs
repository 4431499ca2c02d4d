//! Deployment and load specifications shared by all experiments.

use canopus_net::{LinkParams, Topology, WanMatrix};
use canopus_sim::{Dur, NodeId};

/// Where nodes are placed.
#[derive(Clone, Debug)]
pub enum TopoSpec {
    /// The paper's single-datacenter testbed (§8.1): `racks` racks with
    /// `nodes_per_rack` protocol nodes each.
    SingleDc {
        /// Number of racks (the paper uses 3).
        racks: usize,
        /// Canopus nodes per rack (3, 5, 7, 9 in Figure 4).
        nodes_per_rack: usize,
    },
    /// The paper's multi-datacenter deployment (§8.2): the first `sites`
    /// datacenters of Table 1 with `nodes_per_dc` nodes each.
    MultiDc {
        /// Number of datacenters (3, 5, or 7 in Figure 6).
        sites: usize,
        /// Nodes per datacenter (3 in the paper).
        nodes_per_dc: usize,
    },
}

/// A full deployment: placement plus link parameters.
#[derive(Clone, Debug)]
pub struct DeploymentSpec {
    /// Node placement.
    pub topo: TopoSpec,
    /// Fabric rates and latencies.
    pub link: LinkParams,
}

impl DeploymentSpec {
    /// The paper's single-DC testbed with `nodes_per_rack` Canopus nodes
    /// per rack (10 Gbps NICs, 2×10 Gbps uplinks).
    pub fn paper_single_dc(nodes_per_rack: usize) -> Self {
        DeploymentSpec {
            topo: TopoSpec::SingleDc {
                racks: 3,
                nodes_per_rack,
            },
            link: LinkParams::default(),
        }
    }

    /// The paper's multi-DC deployment over the first `sites` Table-1
    /// datacenters, three nodes each.
    pub fn paper_multi_dc(sites: usize) -> Self {
        DeploymentSpec {
            topo: TopoSpec::MultiDc {
                sites,
                nodes_per_dc: 3,
            },
            link: LinkParams::default(),
        }
    }

    /// Number of protocol nodes.
    pub fn node_count(&self) -> usize {
        match self.topo {
            TopoSpec::SingleDc {
                racks,
                nodes_per_rack,
            } => racks * nodes_per_rack,
            TopoSpec::MultiDc {
                sites,
                nodes_per_dc,
            } => sites * nodes_per_dc,
        }
    }

    /// Number of super-leaves / racks.
    pub fn group_count(&self) -> usize {
        match self.topo {
            TopoSpec::SingleDc { racks, .. } => racks,
            TopoSpec::MultiDc { sites, .. } => sites,
        }
    }

    /// Nodes per super-leaf.
    pub fn per_group(&self) -> usize {
        match self.topo {
            TopoSpec::SingleDc { nodes_per_rack, .. } => nodes_per_rack,
            TopoSpec::MultiDc { nodes_per_dc, .. } => nodes_per_dc,
        }
    }

    /// The protocol nodes of each super-leaf: ids dense and group-major.
    pub fn super_leaves(&self) -> Vec<Vec<NodeId>> {
        let per = self.per_group();
        (0..self.group_count())
            .map(|g| (0..per).map(|i| NodeId((g * per + i) as u32)).collect())
            .collect()
    }

    /// Builds the topology with the protocol nodes placed; client
    /// processes are added afterwards by the cluster builders.
    pub fn build_topology(&self) -> Topology {
        match self.topo {
            TopoSpec::SingleDc {
                racks,
                nodes_per_rack,
            } => Topology::single_dc(racks, nodes_per_rack, self.link),
            TopoSpec::MultiDc {
                sites,
                nodes_per_dc,
            } => Topology::multi_dc(WanMatrix::paper_sites(sites), nodes_per_dc, self.link),
        }
    }

    /// The largest round-trip time between any two groups — bounds cycle
    /// completion time (§7.1) and is the Figure 6 "base latency" marker.
    pub fn max_rtt(&self) -> Dur {
        match self.topo {
            TopoSpec::SingleDc { .. } => self.link.cross_rack_one_way * 2,
            TopoSpec::MultiDc { sites, .. } => WanMatrix::paper_sites(sites).max_rtt(),
        }
    }
}

/// Offered load.
#[derive(Clone, Debug)]
pub struct LoadSpec {
    /// Total offered rate across the whole deployment, requests/second.
    pub total_rate: f64,
    /// Write fraction (0.0–1.0).
    pub write_ratio: f64,
    /// Warmup discarded from measurements.
    pub warmup: Dur,
    /// Measured period after warmup.
    pub duration: Dur,
    /// Per-request cap for the open-loop clients
    /// ([`canopus_workload::OpenLoopConfig::max_batch`]): 0 aggregates a
    /// whole arrival tick per request, 1 models fully unbatched clients.
    pub client_max_batch: u32,
    /// Key-space shards the traffic is routed across (1 = unsharded; the
    /// single-shard path is byte-identical to pre-sharding clients).
    pub shards: u16,
    /// Zipf exponent for the per-shard traffic split: `None` spreads the
    /// offered rate uniformly across shards, `Some(theta)` sends shard
    /// `s` a share ∝ 1/(s+1)^theta (hot shard 0).
    pub shard_theta: Option<f64>,
}

impl LoadSpec {
    /// A load spec at `total_rate` with the paper's default 20 % writes.
    pub fn new(total_rate: f64) -> Self {
        LoadSpec {
            total_rate,
            write_ratio: 0.2,
            warmup: Dur::millis(300),
            duration: Dur::millis(700),
            client_max_batch: 0,
            shards: 1,
            shard_theta: None,
        }
    }

    /// Same load with a different write ratio.
    pub fn with_writes(mut self, ratio: f64) -> Self {
        self.write_ratio = ratio;
        self
    }

    /// Same load with a different client batch cap.
    pub fn with_client_batch(mut self, max_batch: u32) -> Self {
        self.client_max_batch = max_batch;
        self
    }

    /// Same load routed across `shards` key-space shards (uniform split).
    pub fn with_shards(mut self, shards: u16) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Same load with a Zipf-skewed per-shard split (requires sharding).
    pub fn with_shard_skew(mut self, theta: f64) -> Self {
        self.shard_theta = Some(theta);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_single_dc_counts() {
        for (per_rack, n) in [(3, 9), (5, 15), (7, 21), (9, 27)] {
            let d = DeploymentSpec::paper_single_dc(per_rack);
            assert_eq!(d.node_count(), n);
            assert_eq!(d.group_count(), 3);
            let topo = d.build_topology();
            assert_eq!(topo.node_count(), n);
        }
    }

    #[test]
    fn paper_multi_dc_counts() {
        for (sites, n) in [(3, 9), (5, 15), (7, 21)] {
            let d = DeploymentSpec::paper_multi_dc(sites);
            assert_eq!(d.node_count(), n);
            let topo = d.build_topology();
            assert_eq!(topo.node_count(), n);
        }
    }

    #[test]
    fn max_rtt_tracks_wan() {
        let d3 = DeploymentSpec::paper_multi_dc(3);
        assert_eq!(d3.max_rtt(), Dur::millis(133));
        let d7 = DeploymentSpec::paper_multi_dc(7);
        assert_eq!(d7.max_rtt(), Dur::millis(322));
    }
}
