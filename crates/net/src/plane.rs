//! The packet plane: per-port rings, the graftable filter point, batched
//! dispatch and the accept-all fallback.
//!
//! Every packet crosses one graft point: `net/packet-filter`. A filter
//! graft is MiSFIT-processed and runs under the full wrapper — SFI,
//! transaction, resource limits, CPU-slice budget — and returns one
//! [`Verdict`] per packet: accept, drop, or steer to another port.
//! Dispatch is batched: one wrapper transaction covers up to
//! [`PacketPlane::set_batch`] packets, so the begin/commit envelope
//! (66 us of the paper's Table 3) is paid once per batch instead of
//! once per packet. The batch is one atomicity domain — if the filter
//! misbehaves on any packet, the whole batch aborts, the graft is
//! forcibly unloaded (§3.6), and the batch is served by the built-in
//! accept-all default filter instead; reinstalling the filter remains
//! subject to the reliability manager's quarantine.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::rc::Rc;

use vino_core::adapters::{SharedGraft, APP_BUF};
use vino_core::engine::BatchOutcome;
use vino_core::kernel::Kernel;
use vino_core::loader::{InstallError, InstallOpts};
use vino_dev::Port;
use vino_misfit::SignedImage;
use vino_rm::PrincipalId;
use vino_sim::fault::FaultSite;
use vino_sim::metrics::Component;
use vino_sim::obs::Obs;
use vino_sim::profile::SpanKind;
use vino_sim::trace::{ShedKind, TraceEvent, VerdictKind};
use vino_sim::{costs, Cycles, ThreadId};

use crate::packet::{header, Packet, PAYLOAD_CAP};
use crate::ring::{Admit, RxRing, DEFAULT_RING_CAPACITY};

/// Default packets per batched filter dispatch.
pub const DEFAULT_BATCH: usize = 32;

/// Default steer-hop budget: a packet steered more than this many times
/// is in a cycle and is cut.
pub const DEFAULT_HOP_BUDGET: u32 = 8;

/// Default steer-cycle tolerance: once this many packets have been
/// loop-cut while a port's filter was the last steerer, the filter is
/// condemned (forcibly unloaded) and the port falls back to the
/// accept-all default. A filter that only ever spins packets around
/// the fabric never traps, so the wrapper cannot kill it — this is the
/// plane-level discipline that does.
pub const DEFAULT_LOOP_CUT_TOLERANCE: u32 = 8;

/// Cost of ring admission control per arrival (0.25 us).
pub const RX_ADMIT_COST: Cycles = Cycles(30);

/// Cost of the built-in accept-all default filter per packet — the
/// un-graftable base path, same order as Table 3's 0.5 us base.
pub const DEFAULT_FILTER_COST: Cycles = Cycles(60);

/// Cost of decoding and validating one filter verdict (the semantic
/// result check of §3.1, charged to the kernel's component ledger).
pub const RESULT_CHECK_COST: Cycles = Cycles(60);

/// Cost of re-enqueuing one steered packet.
pub const STEER_COST: Cycles = Cycles(60);

/// Verdict encoding, low 16 bits of the filter's halt value.
pub mod verdict_code {
    /// Deliver to the port's consumer.
    pub const ACCEPT: u64 = 0;
    /// Discard.
    pub const DROP: u64 = 1;
    /// Re-enqueue on the port named in bits 16..32.
    pub const STEER: u64 = 2;

    /// Builds the halt value steering to `port`.
    pub fn steer_to(port: u16) -> u64 {
        STEER | ((port as u64) << 16)
    }
}

/// A decoded filter verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Deliver to the port's consumer.
    Accept,
    /// Discard.
    Drop,
    /// Re-enqueue on another port's ring.
    Steer(Port),
}

/// Decodes a filter halt value. Unknown codes fail the result check and
/// decode as [`Verdict::Drop`] — a misbehaving filter must not make the
/// kernel deliver garbage.
pub fn decode_verdict(halt: u64) -> Verdict {
    match halt & 0xFFFF {
        verdict_code::ACCEPT => Verdict::Accept,
        verdict_code::STEER => Verdict::Steer(Port(((halt >> 16) & 0xFFFF) as u16)),
        _ => Verdict::Drop,
    }
}

/// Lifetime tallies for one [`PacketPlane::pump`]-visible port.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortStats {
    /// Packets admitted to the ring.
    pub admitted: u64,
    /// Packets refused by watermark shedding.
    pub shed: u64,
    /// Packets refused at capacity (or injected overflow).
    pub overflowed: u64,
    /// Packets delivered to the consumer.
    pub delivered: u64,
    /// Current ring depth.
    pub depth: usize,
    /// Packets loop-cut while this port's filter was the last steerer.
    pub loop_cuts: u64,
    /// True once the accept-all default filter took over after an
    /// abort.
    pub fallback_active: bool,
    /// Filter status: `None` = never installed, `Some(true)` = live,
    /// `Some(false)` = installed but dead.
    pub filter_live: Option<bool>,
}

/// Totals for one [`PacketPlane::pump`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpSummary {
    /// Packets that crossed a live filter graft.
    pub filtered: u64,
    /// Packets served by the accept-all default path.
    pub defaulted: u64,
    /// Accept verdicts (filter or default).
    pub accepted: u64,
    /// Drop verdicts.
    pub dropped: u64,
    /// Steer verdicts.
    pub steered: u64,
    /// Packets cut by the hop budget.
    pub loop_cuts: u64,
    /// Batched filter dispatches run.
    pub batches: u64,
    /// Filter aborts observed (each kills its graft).
    pub filter_aborts: u64,
}

struct PortState {
    ring: RxRing,
    filter: Option<SharedGraft>,
    filter_name: Option<String>,
    fallback_active: bool,
    delivered: VecDeque<Packet>,
    delivered_total: u64,
    loop_cuts: u64,
}

impl PortState {
    fn new(capacity: usize) -> PortState {
        PortState {
            ring: RxRing::new(capacity),
            filter: None,
            filter_name: None,
            fallback_active: false,
            delivered: VecDeque::new(),
            delivered_total: 0,
            loop_cuts: 0,
        }
    }
}

/// The shared packet plane. See the module docs.
pub struct PacketPlane {
    kernel: Rc<Kernel>,
    ports: RefCell<BTreeMap<Port, PortState>>,
    batch: Cell<usize>,
    hop_budget: Cell<u32>,
    loop_cut_tolerance: Cell<u32>,
    next_id: Cell<u64>,
}

impl PacketPlane {
    /// A plane serving `kernel`'s RX path, with the default batch size
    /// and hop budget.
    pub fn new(kernel: Rc<Kernel>) -> Rc<PacketPlane> {
        Rc::new(PacketPlane {
            kernel,
            ports: RefCell::new(BTreeMap::new()),
            batch: Cell::new(DEFAULT_BATCH),
            hop_budget: Cell::new(DEFAULT_HOP_BUDGET),
            loop_cut_tolerance: Cell::new(DEFAULT_LOOP_CUT_TOLERANCE),
            next_id: Cell::new(0),
        })
    }

    /// The kernel this plane serves.
    pub fn kernel(&self) -> &Rc<Kernel> {
        &self.kernel
    }

    /// Sets the packets-per-batch for filter dispatch (min 1).
    pub fn set_batch(&self, n: usize) {
        self.batch.set(n.max(1));
    }

    /// Sets the steer-hop budget.
    pub fn set_hop_budget(&self, n: u32) {
        self.hop_budget.set(n);
    }

    /// Sets the steer-cycle tolerance (loop cuts blamed on a port's
    /// filter before the plane condemns it).
    pub fn set_loop_cut_tolerance(&self, n: u32) {
        self.loop_cut_tolerance.set(n.max(1));
    }

    /// Opens `port` with an RX ring of `capacity` packets. Opening an
    /// already-open port keeps its existing ring.
    pub fn open_port(&self, port: Port, capacity: usize) {
        self.ports.borrow_mut().entry(port).or_insert_with(|| PortState::new(capacity));
    }

    /// Installs a packet-filter graft on `port` through the kernel's
    /// full loader pipeline (MiSFIT verification, quarantine and blame
    /// gates). Replaces any previous filter and clears the fallback
    /// state. The port is opened with the default ring capacity if
    /// needed.
    pub fn install_filter(
        &self,
        port: Port,
        image: &SignedImage,
        installer: PrincipalId,
        thread: ThreadId,
        opts: &InstallOpts,
    ) -> Result<SharedGraft, InstallError> {
        if port == crate::packet::REPL_PORT {
            // The replication port is outside graft reach: no filter may
            // ever sit between the primary's journal stream and the
            // replica's ring.
            return Err(InstallError::Restricted {
                point: format!("net/packet-filter/port-{} (reserved repl port)", port.0),
            });
        }
        self.open_port(port, DEFAULT_RING_CAPACITY);
        let graft = self.kernel.install_packet_filter(port, image, installer, thread, opts)?;
        let mut ports = self.ports.borrow_mut();
        let st = ports.get_mut(&port).expect("opened above");
        st.filter_name = Some(graft.borrow().name.clone());
        st.filter = Some(Rc::clone(&graft));
        st.fallback_active = false;
        Ok(graft)
    }

    /// Admission control for one fresh arrival: stamps a unique packet
    /// id, consults the injected-overflow fault site, and runs the
    /// ring's watermark policy. The port is opened with the default
    /// capacity if needed.
    pub fn rx(&self, mut pkt: Packet) -> Admit {
        let id = self.next_id.get() + 1;
        self.next_id.set(id);
        pkt.id = id;
        pkt.hops = 0;
        self.enqueue(pkt)
    }

    /// Ring admission shared by fresh arrivals and steered re-entries
    /// (which keep their id and hop count).
    fn enqueue(&self, pkt: Packet) -> Admit {
        self.kernel.clock.charge(RX_ADMIT_COST);
        let port = pkt.port;
        let len = pkt.len() as u64;
        let pkt_ctx = pkt.ctx;
        let forced = self.obs().fire(FaultSite::NetRxOverflow);
        let mut ports = self.ports.borrow_mut();
        let st = ports.entry(port).or_insert_with(|| PortState::new(DEFAULT_RING_CAPACITY));
        let outcome = st.ring.admit(pkt, forced);
        drop(ports);
        match outcome {
            Admit::Admitted => {
                // Packet enqueue is an event origin: a packet carrying
                // a causal context in-band gets a local enqueue span
                // chained to it, so a shipped frame's arrival is
                // attributable to the sender's span across the kernel
                // boundary.
                let rx = TraceEvent::NetRx { port: port.0, len };
                match self.obs().trace() {
                    Some(tp) if !pkt_ctx.is_none() => {
                        self.obs().emit_with_ctx(rx, tp.mint_span(pkt_ctx.span));
                    }
                    _ => self.obs().emit(rx),
                }
            }
            Admit::ShedWatermark => {
                self.shed(port, ShedKind::Watermark);
            }
            Admit::DropOverflow => {
                self.shed(port, ShedKind::Overflow);
            }
        }
        outcome
    }

    /// Drains every ring through its filter until all rings are empty
    /// (steered packets are processed too; the hop budget bounds
    /// cycles). Returns the pump's totals.
    pub fn pump(&self) -> PumpSummary {
        let mut sum = PumpSummary::default();
        loop {
            let mut progressed = false;
            let open: Vec<Port> = self.ports.borrow().keys().copied().collect();
            for port in open {
                while self.process_batch(port, &mut sum) {
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        sum
    }

    /// Processes up to one batch from `port`'s ring. Returns false when
    /// the ring was empty.
    fn process_batch(&self, port: Port, sum: &mut PumpSummary) -> bool {
        // Pop the batch and snapshot the filter under one borrow, then
        // release the map before touching the graft.
        let (batch, filter) = {
            let mut ports = self.ports.borrow_mut();
            let Some(st) = ports.get_mut(&port) else { return false };
            let n = self.batch.get().min(st.ring.depth());
            if n == 0 {
                return false;
            }
            let batch: Vec<Packet> = (0..n).filter_map(|_| st.ring.pop()).collect();
            let live = st.filter.as_ref().filter(|g| !g.borrow().is_dead()).cloned();
            (batch, live)
        };
        match filter {
            Some(graft) => self.filter_batch(port, graft, batch, sum),
            None => {
                // A filter that died outside our dispatch (or was never
                // installed): the default path. The fallback swap emits
                // once, at the moment the dead filter is first seen.
                self.maybe_swap_to_fallback(port);
                for pkt in batch {
                    self.default_accept(port, pkt, sum);
                }
            }
        }
        true
    }

    /// One batched dispatch through a live filter graft: one
    /// indirection charge, one wrapper transaction, `batch.len()` runs.
    fn filter_batch(
        &self,
        port: Port,
        graft: SharedGraft,
        batch: Vec<Packet>,
        sum: &mut PumpSummary,
    ) {
        let n = batch.len();
        let dispatch_start = self.kernel.clock.now();
        self.obs().bill(Component::Indirection, Cycles(costs::INDIRECTION_CYCLES));
        self.obs().emit(TraceEvent::NetBatch { port: port.0, n: n as u64 });
        sum.batches += 1;
        // The injected filter trap: arm a VM trap on the filter's next
        // interpreted instruction, so the batch aborts mid-run through
        // the ordinary trap → abort → unload machinery.
        if let Some(fp) = self.obs().fault().filter(|fp| fp.fire(FaultSite::NetFilterTrap)) {
            fp.arm(FaultSite::VmTrap, fp.visits(FaultSite::VmTrap) + 1);
        }
        let out = graft.borrow_mut().invoke_batch(n, |i, mem| {
            let p = &batch[i];
            let _ = mem.graft_write_u32(header::PORT, p.port.0 as u32);
            let _ = mem.graft_write_u32(header::PROTO, p.proto.code());
            let _ = mem.graft_write_u32(header::LEN, p.payload.len() as u32);
            let _ = mem.graft_write_u32(header::SRC, p.src);
            let _ = mem.graft_write_u32(header::DST, p.dst);
            let take = p.payload.len().min(PAYLOAD_CAP);
            if take > 0 {
                if let Some(buf) = mem.graft_bytes_mut(APP_BUF, take) {
                    buf.copy_from_slice(&p.payload[..take]);
                }
            }
            [p.port.0 as u64, p.payload.len() as u64, p.src as u64, p.dst as u64]
        });
        match out {
            BatchOutcome::Ok { results } => {
                sum.filtered += n as u64;
                for (pkt, halt) in batch.into_iter().zip(results) {
                    // The §3.1 result check: validate the verdict before
                    // acting on it.
                    self.obs().bill(Component::ResultCheck, RESULT_CHECK_COST);
                    match decode_verdict(halt) {
                        Verdict::Accept => {
                            self.verdict(port, VerdictKind::Accept);
                            sum.accepted += 1;
                            self.deliver(port, pkt);
                        }
                        Verdict::Drop => {
                            self.verdict(port, VerdictKind::Drop);
                            sum.dropped += 1;
                        }
                        Verdict::Steer(to) => {
                            self.verdict(port, VerdictKind::Steer);
                            sum.steered += 1;
                            self.steer(port, to, pkt, sum);
                        }
                    }
                }
            }
            BatchOutcome::Aborted { .. } | BatchOutcome::Dead => {
                // The batch was one atomicity domain and nothing was
                // delivered; the filter is dead. Swap to the accept-all
                // default and serve the whole batch through it.
                sum.filter_aborts += 1;
                self.maybe_swap_to_fallback(port);
                for pkt in batch {
                    self.default_accept(port, pkt, sum);
                }
            }
        }
        // One span per batched dispatch, covering indirection, the
        // wrapped filter run and verdict processing; the invocation
        // span nests inside it by containment.
        self.obs().mark_since(SpanKind::NetDispatch, dispatch_start);
    }

    /// The accept-all default filter: the cheap native path every
    /// packet takes when no live filter is installed (§3.6 fallback).
    fn default_accept(&self, port: Port, pkt: Packet, sum: &mut PumpSummary) {
        self.kernel.clock.charge(DEFAULT_FILTER_COST);
        self.verdict(port, VerdictKind::Accept);
        sum.defaulted += 1;
        sum.accepted += 1;
        self.deliver(port, pkt);
    }

    /// Re-enqueues a steered packet, enforcing the hop budget and
    /// consulting the injected steer-loop site.
    fn steer(&self, from: Port, to: Port, mut pkt: Packet, sum: &mut PumpSummary) {
        pkt.hops += 1;
        if pkt.hops > self.hop_budget.get() {
            self.obs().emit(TraceEvent::NetLoopCut { port: from.0 });
            sum.loop_cuts += 1;
            self.note_loop_cut(from);
            return;
        }
        // The injected steering cycle: redirect the packet back at the
        // port it came from, so only the hop budget can end it.
        let to = if self.obs().fire(FaultSite::NetSteerLoop) { from } else { to };
        if to == crate::packet::REPL_PORT {
            // No filter verdict may inject traffic into the reserved
            // replication port; treat the attempt like a cut loop and
            // blame the steering filter.
            self.obs().emit(TraceEvent::NetLoopCut { port: from.0 });
            sum.loop_cuts += 1;
            self.note_loop_cut(from);
            return;
        }
        self.kernel.clock.charge(STEER_COST);
        self.obs().emit(TraceEvent::NetSteer { from: from.0, to: to.0 });
        pkt.port = to;
        let _ = self.enqueue(pkt);
    }

    /// Books one loop cut against `port`'s filter (the last steerer of
    /// the cut packet) and condemns the filter once the tolerance is
    /// exhausted — the steer-cycle discipline.
    fn note_loop_cut(&self, port: Port) {
        let condemned = {
            let mut ports = self.ports.borrow_mut();
            let Some(st) = ports.get_mut(&port) else { return };
            st.loop_cuts += 1;
            match &st.filter {
                Some(g) if st.loop_cuts >= self.loop_cut_tolerance.get() as u64 => {
                    g.borrow_mut().condemn();
                    true
                }
                _ => false,
            }
        };
        if condemned {
            self.maybe_swap_to_fallback(port);
        }
    }

    /// Emits the fallback swap exactly once per filter death: the dead
    /// filter is dropped and the port serves the accept-all default
    /// from now on. Reinstall goes through [`Self::install_filter`] and
    /// the loader's quarantine gate.
    fn maybe_swap_to_fallback(&self, port: Port) {
        let name = {
            let mut ports = self.ports.borrow_mut();
            let Some(st) = ports.get_mut(&port) else { return };
            if st.filter.is_none() {
                return;
            }
            st.filter = None;
            st.fallback_active = true;
            st.filter_name.clone()
        };
        if let Some(name) = name {
            let obs = self.obs();
            obs.emit(TraceEvent::FallbackServed { graft: obs.tag(&name) });
            if let Some(mp) = obs.metrics() {
                mp.mark_fallback(mp.tag(&name));
            }
            if let Some(pp) = obs.profile() {
                pp.mark_fallback();
            }
        }
    }

    fn deliver(&self, port: Port, pkt: Packet) {
        let mut ports = self.ports.borrow_mut();
        let st = ports.get_mut(&port).expect("delivering to an open port");
        st.delivered.push_back(pkt);
        st.delivered_total += 1;
    }

    /// Removes the oldest packet delivered to `port`'s consumer.
    pub fn poll_delivered(&self, port: Port) -> Option<Packet> {
        self.ports.borrow_mut().get_mut(&port).and_then(|st| st.delivered.pop_front())
    }

    /// Removes every packet delivered to `port`'s consumer.
    pub fn drain_delivered(&self, port: Port) -> Vec<Packet> {
        self.ports
            .borrow_mut()
            .get_mut(&port)
            .map(|st| st.delivered.drain(..).collect())
            .unwrap_or_default()
    }

    /// Lifetime tallies for `port`, if open.
    pub fn port_stats(&self, port: Port) -> Option<PortStats> {
        self.ports.borrow().get(&port).map(|st| PortStats {
            admitted: st.ring.admitted,
            shed: st.ring.shed,
            overflowed: st.ring.overflowed,
            delivered: st.delivered_total,
            depth: st.ring.depth(),
            loop_cuts: st.loop_cuts,
            fallback_active: st.fallback_active,
            filter_live: st
                .filter_name
                .as_ref()
                .map(|_| st.filter.as_ref().map(|g| !g.borrow().is_dead()).unwrap_or(false)),
        })
    }

    /// True once `port` fell back to the accept-all default filter.
    pub fn fallback_active(&self, port: Port) -> bool {
        self.ports.borrow().get(&port).map(|st| st.fallback_active).unwrap_or(false)
    }

    /// Open ports, in order.
    pub fn open_ports(&self) -> Vec<Port> {
        self.ports.borrow().keys().copied().collect()
    }

    /// The kernel's observation handle (the packet plane has none of
    /// its own).
    fn obs(&self) -> &Obs {
        &self.kernel.engine.obs
    }

    /// Reports one shed packet, and feeds the watch plane's RX
    /// shed-rate window (the `rx-shed` SLO rule).
    fn shed(&self, port: Port, kind: ShedKind) {
        self.obs().emit(TraceEvent::NetShed { port: port.0, kind });
        self.obs().watched(|wp| wp.observe_shed());
    }

    fn verdict(&self, port: Port, kind: VerdictKind) {
        self.obs().emit(TraceEvent::NetVerdict { port: port.0, verdict: kind });
    }
}

impl std::fmt::Debug for PacketPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PacketPlane")
            .field("ports", &self.ports.borrow().len())
            .field("batch", &self.batch.get())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vino_rm::{Limits, ResourceKind};
    use vino_sim::fault::FaultPlane;
    use vino_sim::metrics::Counter;
    use vino_sim::metrics::MetricsPlane;
    use vino_sim::trace::TracePlane;

    fn boot_plane() -> (Rc<PacketPlane>, Rc<MetricsPlane>, PrincipalId, ThreadId) {
        let k = Kernel::boot();
        let tp = TracePlane::with_capacity(Rc::clone(&k.clock), 1 << 14);
        k.attach_trace_plane(tp).unwrap();
        let mp = MetricsPlane::new(Rc::clone(&k.clock));
        k.attach_metrics_plane(Rc::clone(&mp)).unwrap();
        let app = k.create_app(Limits::of(&[
            (ResourceKind::KernelHeap, 1 << 20),
            (ResourceKind::Memory, 1 << 24),
        ]));
        let t = k.spawn_thread("net-test");
        (PacketPlane::new(k), mp, app, t)
    }

    fn install(
        plane: &PacketPlane,
        port: Port,
        app: PrincipalId,
        t: ThreadId,
        name: &str,
        src: &str,
    ) -> SharedGraft {
        let image = plane.kernel().compile_graft(name, src).unwrap();
        plane.install_filter(port, &image, app, t, &InstallOpts::default()).unwrap()
    }

    #[test]
    fn verdict_decoding_and_encoding() {
        assert_eq!(decode_verdict(0), Verdict::Accept);
        assert_eq!(decode_verdict(1), Verdict::Drop);
        assert_eq!(decode_verdict(verdict_code::steer_to(40)), Verdict::Steer(Port(40)));
        // Unknown codes fail the result check conservatively.
        assert_eq!(decode_verdict(7), Verdict::Drop);
        assert_eq!(decode_verdict(u64::MAX), Verdict::Drop);
    }

    #[test]
    fn live_filter_runs_batched_and_filters() {
        let (plane, mp, app, t) = boot_plane();
        // Drop packets with odd source address; r3 = src on entry.
        install(
            &plane,
            Port(10),
            app,
            t,
            "drop-odd-src",
            "
            andi r5, r3, 1
            bne r5, r0, toss
            halt r0          ; accept
        toss:
            const r5, 1
            halt r5          ; drop
            ",
        );
        for src in 0..64u32 {
            assert_eq!(plane.rx(Packet::udp(src, 9, Port(10), vec![0xAB; 16])), Admit::Admitted);
        }
        let sum = plane.pump();
        assert_eq!((sum.filtered, sum.accepted, sum.dropped), (64, 32, 32));
        assert_eq!(sum.batches, 2, "64 packets / batch of 32");
        let got = plane.drain_delivered(Port(10));
        assert_eq!(got.len(), 32);
        assert!(got.iter().all(|p| p.src % 2 == 0), "odd sources dropped");
        let mut ids: Vec<u64> = got.iter().map(|p| p.id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 32, "no packet delivered twice");
        assert_eq!(mp.get(Counter::NetRxPackets), 64);
        assert_eq!(mp.get(Counter::NetBatchDispatches), 2);
        assert_eq!(mp.get(Counter::NetAccepts), 32);
        assert_eq!(mp.get(Counter::NetDrops), 32);
        // The whole point of batching: one transaction per batch, not
        // one per packet.
        let txn = plane.kernel().engine.txn.borrow().stats();
        assert_eq!((txn.begins, txn.commits), (2, 2));
    }

    #[test]
    fn aborting_filter_falls_back_and_batch_is_served_once() {
        let (plane, mp, app, t) = boot_plane();
        install(
            &plane,
            Port(10),
            app,
            t,
            "div-zero-filter",
            "
            const r5, 0
            div r0, r1, r5
            halt r0
            ",
        );
        for src in 0..40u32 {
            plane.rx(Packet::udp(src, 9, Port(10), vec![1; 8]));
        }
        let sum = plane.pump();
        // Batch 1 (32 packets) aborts and is served by the default
        // path; the filter is dead so the remaining 8 never cross it.
        assert_eq!(sum.filter_aborts, 1);
        assert_eq!(sum.filtered, 0, "no verdict from the aborted batch counts");
        assert_eq!((sum.defaulted, sum.accepted), (40, 40));
        assert!(plane.fallback_active(Port(10)));
        let st = plane.port_stats(Port(10)).unwrap();
        assert_eq!(st.filter_live, Some(false));
        let got = plane.drain_delivered(Port(10));
        assert_eq!(got.len(), 40, "every packet served exactly once");
        let mut ids: Vec<u64> = got.iter().map(|p| p.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 40, "no double delivery across the abort");
        assert_eq!(mp.get(Counter::GraftFallbacks), 1, "one fallback per death");
    }

    #[test]
    fn steering_delivers_to_target_port() {
        let (plane, _mp, app, t) = boot_plane();
        plane.open_port(Port(20), 64);
        let steer = format!("const r5, {}\nhalt r5", verdict_code::steer_to(20));
        install(&plane, Port(10), app, t, "steer-to-20", &steer);
        for src in 0..4u32 {
            plane.rx(Packet::udp(src, 9, Port(10), vec![2; 4]));
        }
        let sum = plane.pump();
        assert_eq!(sum.steered, 4);
        assert!(plane.drain_delivered(Port(10)).is_empty());
        let got = plane.drain_delivered(Port(20));
        assert_eq!(got.len(), 4, "steered packets land on the target port");
        assert!(got.iter().all(|p| p.port == Port(20) && p.hops == 1));
    }

    #[test]
    fn steer_cycle_is_cut_by_the_hop_budget() {
        let (plane, mp, app, t) = boot_plane();
        let steer = format!("const r5, {}\nhalt r5", verdict_code::steer_to(30));
        install(&plane, Port(30), app, t, "self-steer", &steer);
        plane.rx(Packet::udp(1, 9, Port(30), vec![3; 4]));
        plane.rx(Packet::udp(2, 9, Port(30), vec![3; 4]));
        let sum = plane.pump();
        assert_eq!(sum.loop_cuts, 2, "both packets cut, pump terminates");
        assert!(plane.drain_delivered(Port(30)).is_empty());
        // Each packet took hop_budget re-admissions before the cut.
        assert_eq!(mp.get(Counter::NetSteerHops), 2 * DEFAULT_HOP_BUDGET as u64);
        assert_eq!(mp.get(Counter::NetLoopCuts), 2);
    }

    #[test]
    fn persistent_steer_cycle_condemns_the_filter() {
        let (plane, mp, app, t) = boot_plane();
        plane.set_loop_cut_tolerance(2);
        let steer = format!("const r5, {}\nhalt r5", verdict_code::steer_to(30));
        let g = install(&plane, Port(30), app, t, "cycle-filter", &steer);
        for src in 0..3u32 {
            plane.rx(Packet::udp(src, 9, Port(30), vec![3; 4]));
        }
        let sum = plane.pump();
        assert_eq!(sum.loop_cuts, 3);
        assert!(g.borrow().is_dead(), "tolerance exhausted: filter condemned");
        assert!(plane.fallback_active(Port(30)));
        assert_eq!(plane.port_stats(Port(30)).unwrap().filter_live, Some(false));
        assert_eq!(mp.get(Counter::GraftFallbacks), 1);
    }

    #[test]
    fn repl_port_is_outside_filter_reach() {
        use crate::packet::REPL_PORT;
        let (plane, mp, app, t) = boot_plane();
        // No filter graft may install on the reserved replication port.
        let image = plane.kernel().compile_graft("on-repl-port", "halt r0").unwrap();
        let err = plane.install_filter(REPL_PORT, &image, app, t, &InstallOpts::default());
        assert!(
            matches!(err, Err(InstallError::Restricted { .. })),
            "install on the repl port must be refused"
        );
        // A steer verdict aimed at the repl port is cut like a loop,
        // and the repl ring never sees the packet.
        let steer = format!("const r5, {}\nhalt r5", verdict_code::steer_to(REPL_PORT.0));
        install(&plane, Port(10), app, t, "steer-to-repl", &steer);
        plane.rx(Packet::udp(1, 9, Port(10), vec![4; 4]));
        let sum = plane.pump();
        assert_eq!(sum.loop_cuts, 1, "steer into the repl port is refused");
        assert!(plane.drain_delivered(REPL_PORT).is_empty());
        assert_eq!(mp.get(Counter::NetLoopCuts), 1);
        // Repl traffic itself flows through the default-accept path.
        plane.rx(Packet::repl(1, 2, vec![7; 8]));
        plane.pump();
        assert_eq!(plane.drain_delivered(REPL_PORT).len(), 1);
    }

    #[test]
    fn injected_overflow_and_watermark_shedding_are_distinct() {
        let (plane, mp, _app, _t) = boot_plane();
        let fp = FaultPlane::inert();
        plane.kernel().attach_fault_plane(Rc::clone(&fp)).unwrap();
        fp.arm(FaultSite::NetRxOverflow, 1);
        // First arrival: forced overflow regardless of depth.
        assert_eq!(plane.rx(Packet::udp(1, 9, Port(10), vec![0; 4])), Admit::DropOverflow);
        assert_eq!(plane.rx(Packet::udp(2, 9, Port(10), vec![0; 4])), Admit::Admitted);
        // A tiny ring: capacity 8, high water 6, low water 4.
        plane.open_port(Port(11), 8);
        let mut tallies = (0u64, 0u64, 0u64);
        for src in 0..12u32 {
            match plane.rx(Packet::udp(src, 9, Port(11), vec![0; 4])) {
                Admit::Admitted => tallies.0 += 1,
                Admit::ShedWatermark => tallies.1 += 1,
                Admit::DropOverflow => tallies.2 += 1,
            }
        }
        assert!(tallies.1 > 0, "watermark shedding engaged");
        assert!(tallies.2 > 0, "hard overflow at capacity");
        let st = plane.port_stats(Port(11)).unwrap();
        assert_eq!(st.admitted + st.shed + st.overflowed, 12);
        assert_eq!(mp.get(Counter::NetRxOverflows), 1 + st.overflowed, "forced + at-capacity");
        assert_eq!(mp.get(Counter::NetRxSheds), st.shed);
    }
}
