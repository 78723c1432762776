//! The three decorators of the traced run, one per public seam of the host
//! boundary. They forward every call unchanged and record it through
//! `crate::trace`; the repository's code is not touched.

use std::any::Any;
use std::sync::Arc;

use nice_transport::TRANSPORT_TICK;
use node_rt::{Ipv4, Mac, NodeApp, NodeIo, Packet, Payload, Time, WireCodec, XorShiftRng};

use crate::trace::{self, Role};

/// Wraps a node's app: one span per `on_start` / `on_packet` / `on_timer`.
pub struct TracedApp {
    inner: Box<dyn NodeApp>,
}

impl TracedApp {
    /// Call from the node's factory, which the host runs inside the node
    /// thread: this also starts that thread's recorder.
    pub fn wrap(inner: Box<dyn NodeApp>, node: Ipv4, role: Role) -> Box<dyn NodeApp> {
        trace::install(node.0, role);
        Box::new(TracedApp { inner })
    }

    pub fn inner_any(&mut self) -> &mut dyn Any {
        self.inner.as_mut()
    }
}

impl NodeApp for TracedApp {
    fn on_start(&mut self, io: &mut dyn NodeIo) {
        trace::set_clock_offset(io.now().as_ns());
        trace::span(trace::ON_START, None, 0, || {
            self.inner.on_start(&mut TracedIo { inner: io });
        });
    }

    fn on_packet(&mut self, pkt: Packet, io: &mut dyn NodeIo) {
        let cause = trace::take_last_decode();
        trace::span(trace::ON_PACKET, cause, 0, || {
            self.inner.on_packet(pkt, &mut TracedIo { inner: io });
        });
    }

    fn on_timer(&mut self, token: u64, io: &mut dyn NodeIo) {
        let cause = trace::fire(token);
        trace::span(trace::ON_TIMER, cause, token, || {
            self.inner.on_timer(token, &mut TracedIo { inner: io });
        });
    }

    fn on_crash(&mut self) {
        self.inner.on_crash();
    }

    fn on_restart(&mut self, io: &mut dyn NodeIo) {
        self.inner.on_restart(&mut TracedIo { inner: io });
    }
}

/// Wraps the `NodeIo` handed to the app: a span per `send`, and every
/// `set_timer` / `cpu_defer` recorded with its requested delay so the later
/// `on_timer(token)` gives wait and slip.
struct TracedIo<'a> {
    inner: &'a mut dyn NodeIo,
}

impl NodeIo for TracedIo<'_> {
    fn now(&self) -> Time {
        self.inner.now()
    }

    fn ip(&self) -> Ipv4 {
        self.inner.ip()
    }

    fn mac(&self) -> Mac {
        self.inner.mac()
    }

    fn send(&mut self, pkt: Packet) {
        trace::span(trace::SEND, None, 0, || self.inner.send(pkt));
    }

    fn set_timer(&mut self, delay: Time, token: u64) {
        let kind = if token == TRANSPORT_TICK {
            trace::TICK
        } else {
            trace::SET_TIMER
        };
        trace::arm(token, delay.as_ns(), kind);
        self.inner.set_timer(delay, token);
    }

    fn cpu_work(&mut self, amount: Time) {
        self.inner.cpu_work(amount);
    }

    fn cpu_defer(&mut self, amount: Time, token: u64) {
        trace::arm(token, amount.as_ns(), trace::CPU_DEFER);
        self.inner.cpu_defer(amount, token);
    }

    fn rng(&mut self) -> &mut XorShiftRng {
        self.inner.rng()
    }
}

/// Wraps the cluster's codec: encode/decode spans with payload byte counts.
pub struct TracedCodec {
    inner: Arc<dyn WireCodec>,
}

impl TracedCodec {
    pub fn wrap(inner: Arc<dyn WireCodec>) -> Arc<dyn WireCodec> {
        Arc::new(TracedCodec { inner })
    }
}

impl WireCodec for TracedCodec {
    fn encode(&self, payload: &dyn Any) -> Option<Vec<u8>> {
        trace::span_with(trace::ENCODE, None, || {
            let out = self.inner.encode(payload);
            let bytes = out.as_ref().map_or(0, Vec::len) as u64;
            (out, bytes)
        })
    }

    fn decode(&self, bytes: &[u8]) -> Option<Payload> {
        trace::decode_span(bytes.len() as u64, || self.inner.decode(bytes))
    }
}
