//! Topology helpers.
//!
//! The paper's testbed is a single-switch star of 30 hosts with 1 Gbps
//! NICs (§6 "Platform"); [`StarBuilder`] reproduces it. Multi-switch trees
//! can be assembled manually with [`Simulation::connect_switches`] — the
//! NICE controller installs identical rules on every switch (§6).

use crate::host::{App, HostCfg};
use crate::ids::{HostId, Port, SwitchId};
use crate::link::ChannelCfg;
use crate::net::{Ipv4, Mac};
use crate::sim::Simulation;
use crate::switch::{SwitchCfg, SwitchLogic};

/// Incrementally builds a single-switch star and hands out sequential
/// addresses from a base prefix.
pub struct StarBuilder {
    switch: SwitchId,
    link: ChannelCfg,
    next_host: u32,
    base_ip: Ipv4,
}

impl StarBuilder {
    /// Create the switch with the given logic and per-host link config.
    /// Host IPs are allocated sequentially from `base_ip + 1`.
    pub fn new(
        sim: &mut Simulation,
        logic: Box<dyn SwitchLogic>,
        sw_cfg: SwitchCfg,
        link: ChannelCfg,
        base_ip: Ipv4,
    ) -> StarBuilder {
        let switch = sim.add_switch(logic, sw_cfg);
        StarBuilder {
            switch,
            link,
            next_host: 0,
            base_ip,
        }
    }

    /// The switch at the center of the star.
    pub fn switch(&self) -> SwitchId {
        self.switch
    }

    /// The IP the next host added will receive.
    pub fn next_ip(&self) -> Ipv4 {
        Ipv4(self.base_ip.0 + self.next_host + 1)
    }

    /// Add a host running `app`; returns `(host, ip, port)`.
    pub fn add(&mut self, sim: &mut Simulation, app: Box<dyn App>) -> (HostId, Ipv4, Port) {
        let ip = self.next_ip();
        let mac = Mac(0x0200_0000_0000 + u64::from(self.next_host) + 1);
        self.next_host += 1;
        let host = sim.add_host(app, HostCfg::new(ip, mac));
        let port = sim.connect_asym(host, self.switch, self.link.host_uplink(), self.link);
        (host, ip, port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switch::HubLogic;

    struct Idle;
    impl App for Idle {}

    #[test]
    fn star_allocates_sequential_ips() {
        let mut sim = Simulation::new(0);
        let mut star = StarBuilder::new(
            &mut sim,
            Box::new(HubLogic),
            SwitchCfg::default(),
            ChannelCfg::gigabit(),
            Ipv4::new(10, 0, 0, 0),
        );
        let (_, ip1, p1) = star.add(&mut sim, Box::new(Idle));
        let (_, ip2, p2) = star.add(&mut sim, Box::new(Idle));
        assert_eq!(ip1, Ipv4::new(10, 0, 0, 1));
        assert_eq!(ip2, Ipv4::new(10, 0, 0, 2));
        assert_eq!(p1, Port(0));
        assert_eq!(p2, Port(1));
    }
}
