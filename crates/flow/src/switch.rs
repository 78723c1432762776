//! The OpenFlow switch logic: a [`FlowTable`] shared with the controller.

use std::cell::RefCell;
use std::rc::Rc;

use nice_sim::{Packet, Port, Proto, SwitchAction, SwitchLogic, SwitchView, Time};

use crate::table::FlowTable;

/// OpenFlow-style switch behavior: match the shared flow table; punt ARP
/// and table misses to the controller (packet-in), as the paper's learning
/// switch does (§5 "Mapping Service").
pub struct FlowSwitch {
    table: Rc<RefCell<FlowTable>>,
}

impl FlowSwitch {
    /// Create a switch logic over a shared table.
    pub fn new(table: Rc<RefCell<FlowTable>>) -> FlowSwitch {
        FlowSwitch { table }
    }

    /// The shared table handle (give a clone of this to the controller).
    pub fn table(&self) -> Rc<RefCell<FlowTable>> {
        Rc::clone(&self.table)
    }
}

impl SwitchLogic for FlowSwitch {
    fn handle(
        &mut self,
        _view: SwitchView,
        in_port: Port,
        pkt: Packet,
        now: Time,
    ) -> Vec<SwitchAction> {
        // ARP always goes to the controller: it owns address resolution.
        if pkt.proto == Proto::Arp {
            return vec![SwitchAction::ToController { pkt }];
        }
        match self.table.borrow_mut().apply(in_port, &pkt, now) {
            Some(actions) => actions,
            None => vec![SwitchAction::ToController { pkt }],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{Action, FlowMatch, FlowRule};
    use nice_sim::{Ipv4, Mac};
    use std::rc::Rc as StdRc;

    fn view() -> SwitchView {
        SwitchView {
            switch: 0,
            controller: None,
        }
    }

    #[test]
    fn arp_always_punted() {
        let table = StdRc::new(RefCell::new(FlowTable::new()));
        // even with a match-all rule installed, ARP goes to the controller
        table.borrow_mut().install(
            FlowRule::new(1, FlowMatch::any(), vec![Action::Output(Port(1))]),
            Time::ZERO,
        );
        let mut sw = FlowSwitch::new(StdRc::clone(&table));
        let arp = Packet::arp_request(Ipv4::new(1, 0, 0, 1), Mac(1), Ipv4::new(1, 0, 0, 2));
        let acts = sw.handle(view(), Port(0), arp, Time::from_us(1));
        assert!(matches!(acts[0], SwitchAction::ToController { .. }));
    }

    #[test]
    fn miss_punts_match_forwards() {
        let table = StdRc::new(RefCell::new(FlowTable::new()));
        let mut sw = FlowSwitch::new(StdRc::clone(&table));
        let pkt = Packet::udp(
            Ipv4::new(1, 0, 0, 1),
            Mac(1),
            Ipv4::new(1, 0, 0, 2),
            1,
            2,
            8,
            StdRc::new(()),
        );
        let acts = sw.handle(view(), Port(0), pkt.clone(), Time::from_us(1));
        assert!(matches!(acts[0], SwitchAction::ToController { .. }));
        table.borrow_mut().install(
            FlowRule::new(1, FlowMatch::any(), vec![Action::Output(Port(2))]),
            Time::from_us(1),
        );
        let acts = sw.handle(view(), Port(0), pkt, Time::from_us(2));
        assert!(matches!(
            acts[0],
            SwitchAction::Forward { port: Port(2), .. }
        ));
    }
}
