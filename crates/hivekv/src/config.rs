//! KV serving workload configuration.

use flash_coherence::LINES_PER_PAGE;
use flash_machine::MachineParams;

/// Configuration of the replicated KV serving experiment.
///
/// The client population is *modeled*, not simulated per-client: `clients`
/// independent clients each issuing `client_rpm` requests per minute
/// collapse into one open-loop arrival process per shard with mean
/// interarrival [`KvConfig::mean_interarrival_ns`]. Arrival times are fixed
/// by the run seed before any service happens, so a slow or suspended shard
/// accumulates backlog and the measured latency (completion minus scheduled
/// arrival) captures queueing delay through faults — the user-visible
/// quantity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KvConfig {
    /// Number of Hive cells (one shard per cell, on the cell's boot node).
    pub n_cells: usize,
    /// Replicas per chunk (primary included).
    pub replication: usize,
    /// Number of key-space chunks (placement granularity).
    pub chunks: u32,
    /// Memory lines backing each chunk replica on its cell.
    pub lines_per_chunk: u64,
    /// Key population size.
    pub keys: u64,
    /// Modeled client population (10^5..10^7 in the experiments).
    pub clients: u64,
    /// Per-client request rate, requests per minute.
    pub client_rpm: u64,
    /// Zipfian skew of key popularity (0 = uniform; must be < 1).
    pub zipf_theta: f64,
    /// Fraction of requests that are GETs (the rest are PUTs).
    pub get_fraction: f64,
    /// Coherent line reads issued per GET (index + value).
    pub reads_per_get: u32,
    /// Requests served per shard before it drains and halts.
    pub requests_per_shard: u64,
    /// Modeled time to copy one chunk onto a fresh replica during
    /// re-replication. Until it elapses the new replica receives writes but
    /// does not count as data-holding, so a second fault inside the window
    /// can still lose the chunk.
    pub repair_ns_per_chunk: u64,
    /// SLO ceiling on the worst observed latency of successful requests to
    /// unaffected chunks. The whole machine suspends for protocol recovery
    /// (~0.5 s at Table 5-1 scale), so a request admitted just before a
    /// fault legitimately waits out detection + recovery + the incoherent
    /// retry backoff + backlog drain — and a multi-fault schedule can
    /// stack several such pauses back to back. The ceiling bounds that
    /// end-to-end stall, not the fault-free service time (see the measured
    /// quantiles in [`crate::KvStats`] for those).
    pub slo_ceiling_ns: u64,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            n_cells: 4,
            replication: 2,
            chunks: 16,
            lines_per_chunk: 8,
            keys: 1 << 20,
            clients: 1_000_000,
            client_rpm: 15,
            zipf_theta: 0.99,
            get_fraction: 0.9,
            reads_per_get: 2,
            requests_per_shard: 400,
            repair_ns_per_chunk: 200_000,
            slo_ceiling_ns: 5_000_000_000,
        }
    }
}

/// Why a [`KvConfig`] cannot run on a machine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KvConfigError {
    /// `n_cells` is zero or does not divide the node count.
    CellsDontDivideNodes {
        /// The requested cell count.
        n_cells: usize,
        /// The machine's node count.
        n_nodes: usize,
    },
    /// `replication` is zero or exceeds the cell count.
    Replication {
        /// The requested replica count.
        replicas: usize,
        /// The cell count.
        n_cells: usize,
    },
    /// `zipf_theta` is outside `[0, 1)`.
    ZipfTheta(f64),
    /// `get_fraction` is outside `[0, 1]`.
    GetFraction(f64),
    /// `clients` or `client_rpm` is zero: no request would ever arrive.
    NoLoad,
    /// `chunks` is zero.
    NoChunks,
    /// `keys` is zero.
    NoKeys,
    /// The chunk region does not fit on a node below its protected tail.
    ChunkRegionTooLarge {
        /// Lines the chunk region needs.
        lines: u64,
        /// Lines a node has for it.
        available: u64,
    },
}

impl std::fmt::Display for KvConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use KvConfigError::*;
        match *self {
            CellsDontDivideNodes { n_cells, n_nodes } => {
                write!(f, "n_cells {n_cells} must divide the {n_nodes} nodes")
            }
            Replication { replicas, n_cells } => {
                write!(f, "replication {replicas} must be in 1..={n_cells}")
            }
            ZipfTheta(t) => write!(f, "zipf_theta {t} must be in [0, 1)"),
            GetFraction(g) => write!(f, "get_fraction {g} must be in [0, 1]"),
            NoLoad => write!(f, "clients and client_rpm must be nonzero"),
            NoChunks => write!(f, "chunks is 0"),
            NoKeys => write!(f, "keys is 0"),
            ChunkRegionTooLarge { lines, available } => {
                write!(f, "chunk region of {lines} lines exceeds {available}")
            }
        }
    }
}

impl std::error::Error for KvConfigError {}

impl KvConfig {
    /// Checks that the configuration can run on a machine with `params`.
    pub fn validate(&self, params: &MachineParams) -> Result<(), KvConfigError> {
        use KvConfigError::*;
        let (n_cells, n_nodes, replicas) = (self.n_cells, params.n_nodes, self.replication);
        // The chunk region sits one page above the kernel region peers poll
        // and must end below the node's protected tail.
        let lines = (self.chunks as u64)
            .saturating_mul(self.lines_per_chunk)
            .saturating_add(2 * LINES_PER_PAGE);
        let available = params
            .layout()
            .lines_per_node()
            .saturating_sub(params.protected_lines);
        let error = if n_cells == 0 || n_nodes % n_cells != 0 {
            CellsDontDivideNodes { n_cells, n_nodes }
        } else if replicas == 0 || replicas > n_cells {
            Replication { replicas, n_cells }
        } else if !(0.0..1.0).contains(&self.zipf_theta) {
            ZipfTheta(self.zipf_theta)
        } else if !(0.0..=1.0).contains(&self.get_fraction) {
            GetFraction(self.get_fraction)
        } else if self.clients == 0 || self.client_rpm == 0 {
            NoLoad
        } else if self.chunks == 0 {
            NoChunks
        } else if self.keys == 0 {
            NoKeys
        } else if lines > available {
            ChunkRegionTooLarge { lines, available }
        } else {
            return Ok(());
        };
        Err(error)
    }

    /// A smaller request budget for fault-campaign runs (hundreds of runs).
    pub fn campaign() -> Self {
        KvConfig {
            requests_per_shard: 160,
            ..KvConfig::default()
        }
    }

    /// Mean interarrival time of requests at one shard, in nanoseconds:
    /// the aggregate client request rate divided evenly over the shards.
    pub fn mean_interarrival_ns(&self) -> u64 {
        let per_shard_rps =
            self.clients as f64 * self.client_rpm as f64 / 60.0 / self.n_cells as f64;
        ((1e9 / per_shard_rps) as u64).max(1)
    }

    /// Total requests across all shards in one run.
    pub fn total_requests(&self) -> u64 {
        self.requests_per_shard * self.n_cells as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interarrival_matches_population_math() {
        let cfg = KvConfig::default();
        // 10^6 clients x 15 rpm = 250k rps over 4 shards = 62.5k rps each.
        assert_eq!(cfg.mean_interarrival_ns(), 16_000);
        assert_eq!(cfg.total_requests(), 1600);
    }

    fn invalid(change: impl FnOnce(&mut KvConfig)) -> KvConfigError {
        let mut cfg = KvConfig::default();
        change(&mut cfg);
        let mut params = MachineParams::table_5_1();
        params.n_nodes = 8;
        cfg.validate(&params).unwrap_err()
    }

    #[test]
    fn default_config_validates() {
        assert_eq!(
            KvConfig::default().validate(&MachineParams::table_5_1()),
            Ok(())
        );
    }

    #[test]
    fn rejects_cells_that_do_not_divide_nodes() {
        let zero = KvConfigError::CellsDontDivideNodes {
            n_cells: 0,
            n_nodes: 8,
        };
        assert_eq!(invalid(|c| c.n_cells = 0), zero);
        assert!(matches!(
            invalid(|c| c.n_cells = 3),
            KvConfigError::CellsDontDivideNodes { n_cells: 3, .. }
        ));
    }

    #[test]
    fn rejects_replication_outside_cells() {
        assert!(matches!(
            invalid(|c| c.replication = 0),
            KvConfigError::Replication { replicas: 0, .. }
        ));
        assert!(matches!(
            invalid(|c| c.replication = 5),
            KvConfigError::Replication { replicas: 5, .. }
        ));
    }

    #[test]
    fn rejects_zipf_theta_of_one() {
        assert_eq!(
            invalid(|c| c.zipf_theta = 1.0),
            KvConfigError::ZipfTheta(1.0)
        );
    }

    #[test]
    fn rejects_get_fraction_above_one() {
        assert_eq!(
            invalid(|c| c.get_fraction = 1.5),
            KvConfigError::GetFraction(1.5)
        );
    }

    #[test]
    fn rejects_zero_load() {
        assert_eq!(invalid(|c| c.clients = 0), KvConfigError::NoLoad);
        assert_eq!(invalid(|c| c.client_rpm = 0), KvConfigError::NoLoad);
    }

    #[test]
    fn rejects_zero_chunks() {
        assert_eq!(invalid(|c| c.chunks = 0), KvConfigError::NoChunks);
    }

    #[test]
    fn rejects_zero_keys() {
        assert_eq!(invalid(|c| c.keys = 0), KvConfigError::NoKeys);
    }

    #[test]
    fn rejects_chunk_region_larger_than_a_node() {
        assert!(matches!(
            invalid(|c| c.lines_per_chunk = 1 << 20),
            KvConfigError::ChunkRegionTooLarge { .. }
        ));
    }

    #[test]
    fn heavier_population_tightens_arrivals() {
        let cfg = KvConfig {
            clients: 10_000_000,
            ..KvConfig::default()
        };
        assert!(cfg.mean_interarrival_ns() < KvConfig::default().mean_interarrival_ns());
        assert!(cfg.mean_interarrival_ns() >= 1);
    }
}
