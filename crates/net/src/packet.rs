//! Typed packets and the filter-graft marshalling contract.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use vino_dev::Port;
use vino_sim::trace::CauseCtx;

/// Transport protocol of a [`Packet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// UDP datagram.
    Udp,
    /// TCP segment.
    Tcp,
    /// Replication frame (`vino-repl` journal shipping). Repl traffic
    /// lands only on [`REPL_PORT`], which filter grafts can neither
    /// steer into nor install on.
    Repl,
}

impl Proto {
    /// The small-integer encoding written into the filter header.
    pub fn code(self) -> u32 {
        match self {
            Proto::Udp => 0,
            Proto::Tcp => 1,
            Proto::Repl => 2,
        }
    }
}

/// The reserved replication port. The packet plane refuses filter
/// installs on it and treats any steer *into* it as a loop cut, so a
/// misbehaved filter graft can never swallow or redirect journal
/// shipping traffic.
pub const REPL_PORT: Port = Port(99);

/// A packet on the RX path.
///
/// `id` and `hops` are plane bookkeeping: the plane stamps a unique `id`
/// at first admission (the no-double-delivery witness) and bumps `hops`
/// on every steer so the hop budget can cut steering cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Source address.
    pub src: u32,
    /// Destination address.
    pub dst: u32,
    /// Destination port (the RX ring it lands on).
    pub port: Port,
    /// Transport protocol.
    pub proto: Proto,
    /// Payload bytes.
    pub payload: Vec<u8>,
    /// Unique arrival id, stamped by the plane at first admission.
    pub id: u64,
    /// Steer hops taken so far.
    pub hops: u32,
    /// Causal context propagated in-band with the packet: the span
    /// that caused this packet to exist (e.g. the replication ship
    /// span that framed it). [`CauseCtx::NONE`] for untraced traffic.
    pub ctx: CauseCtx,
}

impl Packet {
    /// A fresh UDP packet (the common test/bench constructor).
    pub fn udp(src: u32, dst: u32, port: Port, payload: Vec<u8>) -> Packet {
        Packet { src, dst, port, proto: Proto::Udp, payload, id: 0, hops: 0, ctx: CauseCtx::NONE }
    }

    /// A fresh TCP packet.
    pub fn tcp(src: u32, dst: u32, port: Port, payload: Vec<u8>) -> Packet {
        Packet { src, dst, port, proto: Proto::Tcp, payload, id: 0, hops: 0, ctx: CauseCtx::NONE }
    }

    /// A fresh replication frame, addressed to [`REPL_PORT`].
    pub fn repl(src: u32, dst: u32, payload: Vec<u8>) -> Packet {
        Packet {
            src,
            dst,
            port: REPL_PORT,
            proto: Proto::Repl,
            payload,
            id: 0,
            hops: 0,
            ctx: CauseCtx::NONE,
        }
    }

    /// The same packet carrying `ctx` in-band (builder style).
    pub fn with_ctx(mut self, ctx: CauseCtx) -> Packet {
        self.ctx = ctx;
        self
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

/// Filter-header layout, in bytes from the graft segment base. The
/// plane writes one header per run of a batched dispatch; the payload
/// prefix lands at [`vino_core::adapters::APP_BUF`], capped at
/// [`PAYLOAD_CAP`] bytes.
pub mod header {
    /// Destination port (u32).
    pub const PORT: usize = 0;
    /// Protocol code (u32; see [`super::Proto::code`]).
    pub const PROTO: usize = 4;
    /// Payload length in bytes (u32, uncapped true length).
    pub const LEN: usize = 8;
    /// Source address (u32).
    pub const SRC: usize = 12;
    /// Destination address (u32).
    pub const DST: usize = 16;
}

/// Longest payload prefix marshalled into the graft segment.
pub const PAYLOAD_CAP: usize = 2048;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let p = Packet::udp(1, 2, Port(53), vec![9; 40]);
        assert_eq!(p.proto, Proto::Udp);
        assert_eq!(p.len(), 40);
        assert!(!p.is_empty());
        assert_eq!((p.id, p.hops), (0, 0));
        let t = Packet::tcp(1, 2, Port(80), vec![]);
        assert_eq!(t.proto.code(), 1);
        assert!(t.is_empty());
    }
}
