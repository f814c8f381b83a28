//! The pipelined N×N router that implements data sharing (§4.2, Fig. 7).
//!
//! With data sharing on, each processing unit reads its *source* interval
//! through the router from whichever PU's on-chip memory holds it. The
//! paper argues throughput is unaffected (each PU is attached to exactly one
//! source memory at a time and the path is pipelined, ~5–10 SRAM cycles of
//! latency); the costs that remain are a small per-word interconnect energy
//! and a per-step rerouting overhead.

use hyve_memsim::{Energy, Power, Time};

/// An N-port crossbar-style router between PUs and source vertex memories.
#[derive(Debug, Clone, PartialEq)]
pub struct Router {
    hop_energy_per_word: Energy,
    reroute_latency: Time,
    reroute_energy: Energy,
    leakage: Power,
}

impl Router {
    /// Creates a router with `ports` ports (one per PU).
    ///
    /// Interconnect costs grow with port count: the wire/mux energy per
    /// transferred word scales ~linearly in N, leakage with N².
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero.
    pub fn new(ports: u32) -> Self {
        assert!(ports > 0, "router needs at least one port");
        let n = f64::from(ports);
        Router {
            hop_energy_per_word: Energy::from_pj(0.15) * n.sqrt(),
            reroute_latency: Time::from_ns(10.0),
            reroute_energy: Energy::from_pj(12.0) * n,
            leakage: Power::from_uw(40.0) * n * n,
        }
    }

    /// Interconnect energy of moving one 32-bit word through the router.
    pub fn hop_energy_per_word(&self) -> Energy {
        self.hop_energy_per_word
    }

    /// Latency of re-routing all connections at a step boundary
    /// (§4.2: ≈10 ns, comparable to a remote L3 hit on Ivy Bridge).
    pub fn reroute_latency(&self) -> Time {
        self.reroute_latency
    }

    /// Energy of one rerouting (switch reconfiguration across all ports).
    pub fn reroute_energy(&self) -> Energy {
        self.reroute_energy
    }

    /// Static leakage of the crossbar.
    pub fn leakage(&self) -> Power {
        self.leakage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_scale_with_ports() {
        let r4 = Router::new(4);
        let r8 = Router::new(8);
        assert!(r8.hop_energy_per_word() > r4.hop_energy_per_word());
        assert!(r8.reroute_energy() > r4.reroute_energy());
        assert!(r8.leakage() > r4.leakage());
    }

    #[test]
    fn reroute_latency_near_remote_l3() {
        // §4.2 anchors the remote access at ~10 ns.
        let r = Router::new(8);
        assert!((r.reroute_latency().as_ns() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn hop_energy_small_vs_sram_access() {
        // Sharing must be cheaper than re-loading from DRAM; the hop adds
        // well under one SRAM read (23.84 pJ).
        let r = Router::new(8);
        assert!(r.hop_energy_per_word().as_pj() < 5.0);
    }

    #[test]
    #[should_panic(expected = "at least one port")]
    fn zero_ports_panics() {
        let _ = Router::new(0);
    }
}
