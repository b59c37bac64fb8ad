//! Two kernels, one clock: the deterministic replication harness.
//!
//! The [`ReplHarness`] boots a primary and a replica
//! [`Kernel`] off a single shared [`VirtualClock`] and one seeded
//! [`FaultPlane`], so every interleaving of writes, shipping, faults
//! and crashes is a pure function of the seed — replayable byte for
//! byte.
//!
//! Protocol, per [`ReplHarness::ship_round`]:
//!
//! 1. The shipper tails the primary's retained committed records
//!    ([`FileSystem::committed_records`]) from the cumulative ack and
//!    takes at most [`ReplConfig::window`] of them — the bounded
//!    in-flight window. Unacked records are re-shipped every round
//!    (go-back-N); retransmission is the only loss repair.
//! 2. Wire faults fire at their schedule points: [`ReplShipDrop`] per
//!    frame, [`ReplShipReorder`] between adjacent frames in the
//!    window, [`ReplAckLoss`] on the return path.
//! 3. Surviving frames are fragmented (see [`crate::frame`]),
//!    injected into the replica's packet plane on the reserved
//!    [`REPL_PORT`] — which no graft-installed filter can reach — and
//!    applied via [`FileSystem::ingest_replicated`], the same commit
//!    pipeline (and the same crash points) a local transaction runs.
//! 4. The replica acks cumulatively; the primary prunes its retained
//!    tail and gauges replication lag into the watch plane.
//!
//! Node deaths land at PR 6 crash-point granularity:
//! [`ReplPrimaryCrash`] and [`ReplReplicaCrash`] are schedule points
//! owned by this plane, and when one fires the harness arms the
//! configured `KernelCrash*` site so the victim dies *inside* a
//! journal pipeline — before the descriptor, mid-journal, after the
//! commit block, or mid-checkpoint. A dead replica is rebooted from
//! its crash image through mount-time recovery; a dead primary is
//! survived by [`ReplHarness::failover`].
//!
//! [`ReplShipDrop`]: FaultSite::ReplShipDrop
//! [`ReplShipReorder`]: FaultSite::ReplShipReorder
//! [`ReplAckLoss`]: FaultSite::ReplAckLoss
//! [`ReplPrimaryCrash`]: FaultSite::ReplPrimaryCrash
//! [`ReplReplicaCrash`]: FaultSite::ReplReplicaCrash

use std::collections::BTreeSet;
use std::rc::Rc;

use vino_core::kernel::{Kernel, KernelConfig};
use vino_dev::{BlockAddr, Disk, DiskImage};
use vino_fs::layout::checksum64;
use vino_fs::{Fd, FileSystem, FsError, IngestOutcome, JournalRecord, SuperBlock, BLOCK_SIZE};
use vino_net::{Packet, PacketPlane, REPL_PORT};
use vino_sim::clock::{Cycles, VirtualClock};
use vino_sim::fault::{FaultPlane, FaultSite};
use vino_sim::metrics::{Counter, MetricsPlane};
use vino_sim::trace::{CauseCtx, MergedTrace, NodeId, SpanId, TraceEvent, TracePlane};
use vino_sim::watch::WatchPlane;

use crate::frame;

/// Network addresses the two nodes ship under (cosmetic — the packet
/// plane routes by port).
const PRIMARY_ADDR: u32 = 1;
const REPLICA_ADDR: u32 = 2;

/// RX-ring capacity on the reserved port; comfortably above the
/// fragment count of the largest record shipped per pump.
const RING_CAP: usize = 64;

/// Deterministic one-way wire latency charged on the shared clock per
/// injected frame (either direction). Besides modelling propagation,
/// it guarantees cross-kernel child events land strictly *after* their
/// cross-kernel parents, which the merged-stream causal order relies
/// on.
pub const WIRE_CYCLES: Cycles = Cycles(60);

/// The standard workload file and its extent, in blocks.
const WORKLOAD: &str = "repl.dat";
const WORKLOAD_BLOCKS: u64 = 48;

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct ReplConfig {
    /// Kernel configuration for both nodes (and the shadow volume the
    /// prefix check reconstructs against).
    pub kernel: KernelConfig,
    /// Maximum committed-but-unacked records shipped per round.
    pub window: u64,
    /// Which PR 6 crash point a [`FaultSite::ReplPrimaryCrash`] or
    /// [`FaultSite::ReplReplicaCrash`] lands on: must be one of the
    /// `KernelCrash*` sites. The repl sites pick *when* a node dies;
    /// this picks *where inside the journal pipeline*.
    pub crash_site: FaultSite,
}

impl Default for ReplConfig {
    fn default() -> ReplConfig {
        ReplConfig {
            kernel: KernelConfig::default(),
            window: 4,
            crash_site: FaultSite::KernelCrashMidJournal,
        }
    }
}

/// Which node an armed repl crash site killed during a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodeDeath {
    /// Nobody died.
    #[default]
    None,
    /// The primary died; call [`ReplHarness::failover`].
    Primary,
    /// The replica died mid-apply and was rebooted through recovery.
    Replica,
}

/// What one [`ReplHarness::ship_round`] did.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundReport {
    /// Record frames injected into the wire.
    pub shipped: u64,
    /// Frames that were re-ships of an already-shipped sequence.
    pub retransmits: u64,
    /// Frames dropped by [`FaultSite::ReplShipDrop`].
    pub dropped: u64,
    /// Records applied on the replica this round.
    pub applied: u64,
    /// Cumulative ack after the round.
    pub acked: u64,
    /// Committed-but-unacked records left on the primary.
    pub lag: u64,
    /// Whether a node died this round.
    pub death: NodeDeath,
}

/// Aggregate of a [`ReplHarness::run`] workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkloadReport {
    /// Ship rounds driven.
    pub rounds: u64,
    /// Record frames injected (including retransmissions).
    pub shipped: u64,
    /// Re-shipped frames.
    pub retransmits: u64,
    /// Frames lost to [`FaultSite::ReplShipDrop`].
    pub dropped: u64,
    /// Records applied on the replica.
    pub applied: u64,
    /// Cumulative ack at the end of the run.
    pub acked: u64,
    /// Replication lag at the end of the run.
    pub final_lag: u64,
    /// The primary died during the run.
    pub primary_died: bool,
    /// Replica deaths (each one rebooted through recovery).
    pub replica_crashes: u64,
}

/// A point-in-time snapshot of the shipping pipeline, for status
/// surfaces like the `vino_top` example.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShippingState {
    /// Configured in-flight window, in records per round.
    pub window: u64,
    /// Records currently occupying the window (`min(lag, window)`).
    pub in_flight: u64,
    /// Highest sequence ever put on the wire.
    pub last_shipped: u64,
    /// Cumulative ack the primary holds.
    pub last_acked: u64,
    /// Highest sequence applied on the replica.
    pub applied: u64,
    /// Committed-but-unacked records on the primary.
    pub lag: u64,
    /// Lifetime re-shipped frames, from the metrics ledger.
    pub retransmits: u64,
    /// Lifetime frames lost to [`FaultSite::ReplShipDrop`].
    pub frame_drops: u64,
    /// Whether the primary has died.
    pub primary_dead: bool,
    /// Replica crash/reboot count.
    pub replica_reboots: u64,
}

/// The two-kernel replication harness. See the module docs.
pub struct ReplHarness {
    cfg: ReplConfig,
    clock: Rc<VirtualClock>,
    primary: Rc<Kernel>,
    replica: Rc<Kernel>,
    p_plane: Rc<PacketPlane>,
    r_plane: Rc<PacketPlane>,
    reasm: frame::Reassembler,
    /// Highest sequence the replica holds applied (harness-tracked:
    /// the replica's own in-memory high-water mark does not survive
    /// its reboots).
    applied: u64,
    /// Cumulative ack the primary has seen.
    acked: u64,
    /// Highest sequence ever put on the wire, for retransmit counting.
    high_shipped: u64,
    /// The replica's most recent successful ingest context; rides the
    /// ack frame so the primary's `ReplAck` chains cross-kernel.
    last_ingest_ctx: CauseCtx,
    primary_dead: bool,
    replica_reboots: u64,
    /// An ideal replica: every committed record applied in order on a
    /// private volume (own clock, no faults), so mid-run prefix checks
    /// have ground truth even after the primary prunes its tail.
    shadow: FileSystem,
    workload_fd: Option<Fd>,
}

impl ReplHarness {
    /// Boots a primary and a replica off one fresh virtual clock and
    /// one fault plane seeded with `seed`, wires a per-kernel trace
    /// plane into each node (node 0 primary, node 1 replica) and a
    /// shared metrics plane into both, a watch plane into the primary,
    /// and opens the reserved replication port on both packet planes.
    pub fn new(seed: u64, cfg: ReplConfig) -> ReplHarness {
        assert!(cfg.window > 0, "a zero window ships nothing");
        assert!(
            vino_sim::fault::CRASH_SITES.contains(&cfg.crash_site),
            "crash_site must be a KernelCrash* point, got {:?}",
            cfg.crash_site
        );
        let clock = VirtualClock::new();
        let primary = Kernel::boot_with_clock(cfg.kernel.clone(), Rc::clone(&clock));
        let replica = Kernel::boot_with_clock(cfg.kernel.clone(), Rc::clone(&clock));
        let fault = FaultPlane::seeded(seed);
        let p_trace = TracePlane::with_node(Rc::clone(&clock), 1 << 14, NodeId(0));
        let r_trace = TracePlane::with_node(Rc::clone(&clock), 1 << 14, NodeId(1));
        let metrics = MetricsPlane::new(Rc::clone(&clock));
        let watch = WatchPlane::new(Rc::clone(&clock));
        for k in [&primary, &replica] {
            k.attach_fault_plane(Rc::clone(&fault)).expect("fresh kernel");
            k.attach_metrics_plane(Rc::clone(&metrics)).expect("fresh kernel");
        }
        primary.attach_trace_plane(Rc::clone(&p_trace)).expect("fresh kernel");
        replica.attach_trace_plane(Rc::clone(&r_trace)).expect("fresh kernel");
        primary.attach_watch_plane(Rc::clone(&watch)).expect("fresh kernel");
        let p_plane = PacketPlane::new(Rc::clone(&primary));
        let r_plane = PacketPlane::new(Rc::clone(&replica));
        p_plane.open_port(REPL_PORT, RING_CAP);
        r_plane.open_port(REPL_PORT, RING_CAP);
        let shadow_clock = VirtualClock::new();
        let shadow = FileSystem::format(
            Rc::clone(&shadow_clock),
            Disk::new(shadow_clock),
            cfg.kernel.cache_blocks,
            cfg.kernel.max_files,
        );
        ReplHarness {
            cfg,
            clock,
            primary,
            replica,
            p_plane,
            r_plane,
            reasm: frame::Reassembler::new(),
            applied: 0,
            acked: 0,
            high_shipped: 0,
            last_ingest_ctx: CauseCtx::NONE,
            primary_dead: false,
            replica_reboots: 0,
            shadow,
            workload_fd: None,
        }
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &Rc<VirtualClock> {
        &self.clock
    }

    /// The shared fault plane — arm or rate the `Repl*` sites here.
    pub fn fault_plane(&self) -> &Rc<FaultPlane> {
        self.primary.engine.obs.fault().expect("attached at boot")
    }

    /// The primary's trace plane (node 0).
    pub fn primary_trace(&self) -> &Rc<TracePlane> {
        self.primary.engine.obs.trace().expect("attached at boot")
    }

    /// The replica's trace plane (node 1; it survives replica reboots
    /// — a rebooted kernel is re-attached to the same plane).
    pub fn replica_trace(&self) -> &Rc<TracePlane> {
        self.replica.engine.obs.trace().expect("attached at boot and every reboot")
    }

    /// The deterministically merged cross-kernel stream — total order
    /// `(tick, node, seq)`, causal parents before children. See
    /// [`TracePlane::merge_streams`].
    pub fn merged_trace(&self) -> MergedTrace {
        TracePlane::merge_streams(&[self.primary_trace(), self.replica_trace()])
    }

    /// The shared metrics plane.
    pub fn metrics_plane(&self) -> &Rc<MetricsPlane> {
        self.primary.engine.obs.metrics().expect("attached at boot")
    }

    /// The primary's watch plane (carries the replication-lag SLO).
    pub fn watch_plane(&self) -> &Rc<WatchPlane> {
        self.primary.engine.obs.watch().expect("attached at boot")
    }

    /// The primary kernel.
    pub fn primary(&self) -> &Rc<Kernel> {
        &self.primary
    }

    /// The replica kernel (replaced on every replica reboot).
    pub fn replica(&self) -> &Rc<Kernel> {
        &self.replica
    }

    /// Highest sequence applied on the replica.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Cumulative ack the primary has seen.
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// Highest committed sequence on the primary.
    pub fn primary_committed(&self) -> u64 {
        self.primary.fs.borrow().last_committed_seq()
    }

    /// Committed-but-unacked records on the primary.
    pub fn lag(&self) -> u64 {
        self.primary_committed().saturating_sub(self.acked)
    }

    /// Whether the primary has died.
    pub fn primary_dead(&self) -> bool {
        self.primary_dead
    }

    /// How many times the replica crashed and was rebooted.
    pub fn replica_reboots(&self) -> u64 {
        self.replica_reboots
    }

    /// A point-in-time snapshot of the shipping pipeline.
    pub fn shipping_state(&self) -> ShippingState {
        ShippingState {
            window: self.cfg.window,
            in_flight: self.lag().min(self.cfg.window),
            last_shipped: self.high_shipped,
            last_acked: self.acked,
            applied: self.applied,
            lag: self.lag(),
            retransmits: self.metrics_plane().get(Counter::ReplRetransmits),
            frame_drops: self.metrics_plane().get(Counter::ReplFrameDrops),
            primary_dead: self.primary_dead,
            replica_reboots: self.replica_reboots,
        }
    }

    /// Age of the oldest committed-but-unacked record — now minus its
    /// seal instant — or zero cycles when fully converged. This is the
    /// cycles-valued replication-lag gauge that the lag-path report's
    /// per-hop breakdown telescopes to exactly.
    pub fn repl_lag_age(&self) -> Cycles {
        if self.lag() == 0 {
            return Cycles(0);
        }
        match self.primary.fs.borrow().seal_info_of(self.acked + 1) {
            Some((_, sealed_at)) => self.clock.now().saturating_sub(sealed_at),
            None => Cycles(0),
        }
    }

    /// The seal span of committed record `seq` on the primary, if the
    /// retained journal tail still holds it.
    fn seal_span_of(&self, seq: u64) -> SpanId {
        self.primary.fs.borrow().seal_info_of(seq).map(|(span, _)| span).unwrap_or(SpanId::NONE)
    }

    /// One protocol round: window → wire faults → ship → apply → ack.
    /// See the module docs for the schedule points.
    pub fn ship_round(&mut self) -> RoundReport {
        let mut rep = RoundReport::default();
        if !self.primary_dead && self.primary.engine.obs.fire(FaultSite::ReplPrimaryCrash) {
            self.kill_primary();
            rep.death = NodeDeath::Primary;
            rep.acked = self.acked;
            rep.lag = self.lag();
            return rep;
        }
        // 1. The in-flight window: committed but unacked, oldest first.
        let window: Vec<JournalRecord> = {
            let fs = self.primary.fs.borrow();
            fs.committed_records(self.acked + 1).take(self.cfg.window as usize).cloned().collect()
        };
        // 2. Wire faults: whole-frame drops, then reorders between
        // adjacent frames still in the window.
        let mut batch = Vec::with_capacity(window.len());
        for rec in window {
            if self.primary.engine.obs.fire(FaultSite::ReplShipDrop) {
                let drop_ctx = self.primary_trace().mint_span(self.seal_span_of(rec.seq));
                self.primary
                    .engine
                    .obs
                    .emit_with_ctx(TraceEvent::ReplFrameDrop { seq: rec.seq }, drop_ctx);
                rep.dropped += 1;
                continue;
            }
            batch.push(rec);
        }
        let mut i = 0;
        while i + 1 < batch.len() {
            if self.primary.engine.obs.fire(FaultSite::ReplShipReorder) {
                batch.swap(i, i + 1);
                i += 2;
            } else {
                i += 1;
            }
        }
        // 3. Ship each frame: fragment, inject, pump, reassemble,
        // apply. An out-of-order frame lands as a Gap and is repaired
        // by next round's retransmission.
        for rec in &batch {
            if rec.seq <= self.high_shipped {
                self.metrics_plane().inc(Counter::ReplRetransmits);
                rep.retransmits += 1;
            }
            self.high_shipped = self.high_shipped.max(rec.seq);
            // The ship span is a child of the record's seal span and
            // rides every fragment of the frame in-band.
            let ship_ctx = self.primary_trace().mint_span(self.seal_span_of(rec.seq));
            let frags = frame::fragment(rec, ship_ctx);
            self.primary.engine.obs.emit_with_ctx(
                TraceEvent::ReplShip { seq: rec.seq, frags: frags.len() as u64 },
                ship_ctx,
            );
            rep.shipped += 1;
            for f in frags {
                self.clock.charge(WIRE_CYCLES);
                self.r_plane.rx(Packet::repl(PRIMARY_ADDR, REPLICA_ADDR, f).with_ctx(ship_ctx));
            }
            self.r_plane.pump();
            let mut completed = Vec::new();
            for pkt in self.r_plane.drain_delivered(REPL_PORT) {
                if let Some(rc) = self.reasm.accept(&pkt.payload) {
                    completed.push(rc);
                }
            }
            for (r, ship) in completed {
                if r.seq == self.applied + 1
                    && self.primary.engine.obs.fire(FaultSite::ReplReplicaCrash)
                {
                    self.crash_replica_mid_apply(&r, ship);
                    rep.death = NodeDeath::Replica;
                    continue;
                }
                // The ingest span — a child of the ship span that
                // carried the frame — is in force on the replica for
                // the whole apply, so the replica's own journal events
                // chain off it.
                let ingest_ctx = self.replica_trace().mint_span(ship.span);
                let prev = self.replica_trace().set_ctx(ingest_ctx);
                let out = self.replica.fs.borrow_mut().ingest_replicated(&r);
                self.replica_trace().set_ctx(prev);
                match out {
                    Ok(IngestOutcome::Applied { blocks }) => {
                        self.applied = self.applied.max(r.seq);
                        self.last_ingest_ctx = ingest_ctx;
                        self.replica.engine.obs.emit_with_ctx(
                            TraceEvent::ReplApply { seq: r.seq, blocks },
                            ingest_ctx,
                        );
                        rep.applied += 1;
                    }
                    Ok(IngestOutcome::Duplicate | IngestOutcome::Gap { .. }) => {}
                    Err(FsError::PowerFailure) => {
                        unreachable!("replica crashes are scheduled by the harness")
                    }
                    // A refused frame (it cannot happen through the
                    // sealed wire, but the contract allows it) is
                    // simply retransmitted next round.
                    Err(_) => {}
                }
            }
        }
        // 4. Cumulative ack, one small frame on the return path. It
        // carries the replica's latest ingest context so the primary's
        // ReplAck span chains cross-kernel.
        if self.applied > 0 && !self.primary.engine.obs.fire(FaultSite::ReplAckLoss) {
            let ack_ctx = self.last_ingest_ctx;
            self.clock.charge(WIRE_CYCLES);
            self.p_plane.rx(Packet::repl(
                REPLICA_ADDR,
                PRIMARY_ADDR,
                frame::encode_ack(self.applied, ack_ctx),
            )
            .with_ctx(ack_ctx));
            self.p_plane.pump();
            for pkt in self.p_plane.drain_delivered(REPL_PORT) {
                if let Some((acked, ctx)) = frame::decode_ack(&pkt.payload) {
                    if acked > self.acked {
                        // Advance the shadow before pruning: pruned
                        // records are gone from the primary's tail.
                        self.sync_shadow(acked);
                        self.acked = acked;
                        let ack_span = self.primary_trace().mint_span(ctx.span);
                        self.primary
                            .engine
                            .obs
                            .emit_with_ctx(TraceEvent::ReplAck { acked }, ack_span);
                        self.primary.fs.borrow_mut().prune_committed(acked);
                    }
                }
            }
        }
        if !self.primary_dead {
            self.watch_plane().observe_repl_lag(self.lag());
            self.watch_plane().observe_repl_lag_age(self.repl_lag_age());
        }
        rep.acked = self.acked;
        rep.lag = self.lag();
        rep
    }

    /// The standard workload driver: two primary writes then one ship
    /// round per step (two, so multi-record windows exist and
    /// reorder schedule points are actually visited), all offsets and
    /// fill bytes a pure function of the step index.
    pub fn run(&mut self, steps: usize) -> WorkloadReport {
        let mut report = WorkloadReport::default();
        self.ensure_workload_file();
        for step in 0..steps as u64 {
            if !self.primary_dead {
                self.workload_write(step * 2);
                self.workload_write(step * 2 + 1);
            }
            let r = self.ship_round();
            report.rounds += 1;
            report.shipped += r.shipped;
            report.retransmits += r.retransmits;
            report.dropped += r.dropped;
            report.applied += r.applied;
            match r.death {
                NodeDeath::Primary => report.primary_died = true,
                NodeDeath::Replica => report.replica_crashes += 1,
                NodeDeath::None => {}
            }
        }
        report.acked = self.acked;
        report.final_lag = self.lag();
        report
    }

    /// Fails over to the replica: finish replay from the primary's
    /// retained journal history (the post-mortem drain is reliable —
    /// the wire faults model the live link, and a real operator reads
    /// the dead primary's durable journal), assert byte-identical
    /// committed state, and promote the replica by booting a fresh
    /// kernel from its disk image. Returns the promoted kernel.
    pub fn failover(&mut self) -> Rc<Kernel> {
        let pending: Vec<JournalRecord> = {
            let fs = self.primary.fs.borrow();
            fs.committed_records(self.applied + 1).cloned().collect()
        };
        for rec in pending {
            // No ship leg here — the drain reads the durable journal
            // directly, so the ingest span chains straight off the
            // record's seal span.
            let ingest_ctx = self.replica_trace().mint_span(self.seal_span_of(rec.seq));
            let prev = self.replica_trace().set_ctx(ingest_ctx);
            let out = self
                .replica
                .fs
                .borrow_mut()
                .ingest_replicated(&rec)
                .expect("the failover drain is fault-free");
            self.replica_trace().set_ctx(prev);
            match out {
                IngestOutcome::Applied { blocks } => {
                    self.applied = self.applied.max(rec.seq);
                    self.last_ingest_ctx = ingest_ctx;
                    self.replica
                        .engine
                        .obs
                        .emit_with_ctx(TraceEvent::ReplApply { seq: rec.seq, blocks }, ingest_ctx);
                }
                IngestOutcome::Duplicate => {}
                IngestOutcome::Gap { expected } => {
                    panic!("drain out of order: expected {expected}, got {}", rec.seq)
                }
            }
        }
        assert_committed_states_match(
            &self.primary.fs.borrow().disk_image(),
            &self.replica.fs.borrow().disk_image(),
        );
        let image = self.replica.fs.borrow().disk_image();
        let promoted = Kernel::boot_from_image_with_clock(
            self.cfg.kernel.clone(),
            Rc::clone(&self.clock),
            image,
        )
        .expect("a converged replica image must boot");
        let promote_ctx = self.replica_trace().mint_span(self.last_ingest_ctx.span);
        self.replica
            .engine
            .obs
            .emit_with_ctx(TraceEvent::ReplPromote { seq: self.applied }, promote_ctx);
        promoted
    }

    /// Mid-run invariant: the replica's disk is byte-identical to the
    /// primary's committed prefix at the replica's applied sequence,
    /// reconstructed record-by-record on the harness's shadow volume.
    pub fn assert_replica_matches_committed_prefix(&mut self) {
        self.sync_shadow(self.applied);
        assert_committed_states_match(
            &self.shadow.disk_image(),
            &self.replica.fs.borrow().disk_image(),
        );
    }

    /// Arms the configured crash point and lands the primary on it
    /// inside one more local transaction.
    fn kill_primary(&mut self) {
        let site = self.cfg.crash_site;
        self.fault_plane().arm(site, self.fault_plane().visits(site) + 1);
        let res = self.primary.fs.borrow_mut().create(".crash-victim", 64);
        assert_eq!(res, Err(FsError::PowerFailure), "armed crash point must kill the primary");
        self.primary_dead = true;
    }

    /// Arms the configured crash point under `rec`'s apply, lets the
    /// replica die inside the commit pipeline — with the doomed
    /// ingest's span in force, so the torn journal events still chain
    /// off `ship` — and reboots it from its crash image through
    /// mount-time recovery.
    fn crash_replica_mid_apply(&mut self, rec: &JournalRecord, ship: CauseCtx) {
        let site = self.cfg.crash_site;
        self.fault_plane().arm(site, self.fault_plane().visits(site) + 1);
        let ingest_ctx = self.replica_trace().mint_span(ship.span);
        let prev = self.replica_trace().set_ctx(ingest_ctx);
        let res = self.replica.fs.borrow_mut().ingest_replicated(rec);
        self.replica_trace().set_ctx(prev);
        assert_eq!(res, Err(FsError::PowerFailure), "armed crash point must kill the replica");
        self.reboot_replica();
    }

    /// Boots a fresh replica kernel over the crash image and reconciles
    /// the shipping cursor with what recovery found.
    fn reboot_replica(&mut self) {
        let image = self.replica.crash_image();
        let k = Kernel::boot_from_image_with_clock(
            self.cfg.kernel.clone(),
            Rc::clone(&self.clock),
            image,
        )
        .expect("a replica crash image must remount");
        k.attach_fault_plane(Rc::clone(self.fault_plane())).expect("fresh kernel");
        k.attach_trace_plane(Rc::clone(self.replica_trace())).expect("fresh kernel");
        k.attach_metrics_plane(Rc::clone(self.metrics_plane())).expect("fresh kernel");
        let report = k.recovery_report().expect("mounted from an image");
        if report.replayed_txns > 0 {
            // The torn record committed before the crash; recovery
            // rolled it forward, so the replica holds it.
            self.applied = self.applied.max(report.next_seq - 1);
        }
        if report.next_seq > self.applied + 1 {
            // Recovery discarded a torn, half-applied record and
            // advanced the sequence past it; re-open the cursor so the
            // retransmission is accepted rather than skipped.
            k.fs.borrow_mut().rewind_replication_cursor(self.applied);
        }
        let plane = PacketPlane::new(Rc::clone(&k));
        plane.open_port(REPL_PORT, RING_CAP);
        self.r_plane = plane;
        self.replica = k;
        // In-flight fragments died with the old packet plane.
        self.reasm.clear();
        self.replica_reboots += 1;
    }

    /// Applies committed records onto the shadow volume up to `upto`.
    fn sync_shadow(&mut self, upto: u64) {
        let recs: Vec<JournalRecord> = {
            let fs = self.primary.fs.borrow();
            fs.committed_records(self.shadow.last_committed_seq() + 1)
                .take_while(|r| r.seq <= upto)
                .cloned()
                .collect()
        };
        for rec in recs {
            let out = self.shadow.ingest_replicated(&rec).expect("the shadow volume never faults");
            assert!(
                matches!(out, IngestOutcome::Applied { .. }),
                "the shadow applies strictly in order"
            );
        }
    }

    /// Creates and opens the workload file on the primary, once.
    fn ensure_workload_file(&mut self) {
        if self.workload_fd.is_some() || self.primary_dead {
            return;
        }
        let mut fs = self.primary.fs.borrow_mut();
        match fs.create(WORKLOAD, WORKLOAD_BLOCKS * BLOCK_SIZE as u64) {
            Ok(()) => {}
            Err(FsError::PowerFailure) => {
                self.primary_dead = true;
                return;
            }
            Err(e) => panic!("workload create failed: {e:?}"),
        }
        self.workload_fd = Some(fs.open(WORKLOAD).expect("just created"));
    }

    /// One deterministic workload write: 256 bytes whose offset and
    /// fill are pure functions of `tick`.
    fn workload_write(&mut self, tick: u64) {
        let Some(fd) = self.workload_fd else { return };
        let mut data = [0u8; 256];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (tick as u8).wrapping_mul(31).wrapping_add(i as u8);
        }
        let offset = (tick % WORKLOAD_BLOCKS) * BLOCK_SIZE as u64;
        match self.primary.fs.borrow_mut().write(fd, offset, &data) {
            Ok(()) => {}
            Err(FsError::PowerFailure) => self.primary_dead = true,
            Err(e) => panic!("workload write failed: {e:?}"),
        }
    }
}

/// Recovers `image` on a private clock (roll the journal tail forward
/// or discard it, exactly as a post-crash mount would) and returns the
/// recovered image plus its superblock.
fn recovered_image(image: &DiskImage) -> (DiskImage, SuperBlock) {
    let clock = VirtualClock::new();
    let disk = Disk::from_image(Rc::clone(&clock), image.clone())
        .expect("snapshot images are geometry-consistent");
    let fs = FileSystem::mount(clock, disk, 16).expect("the image must be recoverable");
    let img = fs.disk_image();
    let sb = SuperBlock::decode(&img.block(BlockAddr(0))).expect("recovered superblock");
    (img, sb)
}

/// Block addresses worth comparing between two recovered images: the
/// union of their written sets, minus the journal staging region
/// `[journal_start, data_start)` — the journal holds whichever record
/// each node saw last and is mechanism, not state.
fn comparable_blocks(a: &DiskImage, b: &DiskImage, sb: &SuperBlock) -> BTreeSet<u64> {
    a.written()
        .chain(b.written())
        .map(|addr| addr.0)
        .filter(|&blk| blk < sb.journal_start as u64 || blk >= sb.data_start as u64)
        .collect()
}

/// Asserts two disk images hold byte-identical *committed state*:
/// after each side's journal recovery, every block outside the journal
/// staging region is equal (unwritten blocks read as zeros). Panics
/// with the first diverging block address otherwise.
pub fn assert_committed_states_match(primary: &DiskImage, replica: &DiskImage) {
    let (p_img, p_sb) = recovered_image(primary);
    let (r_img, r_sb) = recovered_image(replica);
    assert_eq!(
        (p_sb.journal_start, p_sb.data_start, p_sb.total_blocks),
        (r_sb.journal_start, r_sb.data_start, r_sb.total_blocks),
        "volume geometry diverged"
    );
    for blk in comparable_blocks(&p_img, &r_img, &p_sb) {
        assert!(
            p_img.block(BlockAddr(blk)) == r_img.block(BlockAddr(blk)),
            "block {blk} diverged between primary and replica committed state"
        );
    }
}

/// An FNV-1a fingerprint of an image's committed state (same recovery
/// and same exclusions as [`assert_committed_states_match`]) — a cheap
/// equality witness for same-seed replay checks. All-zero blocks are
/// skipped so a written-as-zeros block equals a never-written one.
pub fn committed_state_fingerprint(image: &DiskImage) -> u64 {
    let (img, sb) = recovered_image(image);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for blk in comparable_blocks(&img, &img, &sb) {
        let block = img.block(BlockAddr(blk));
        if block.iter().all(|&byte| byte == 0) {
            continue;
        }
        mix(blk);
        mix(checksum64(&block));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lockstep_run_converges_and_promotes() {
        let mut h = ReplHarness::new(0xA1, ReplConfig::default());
        let report = h.run(8);
        assert!(report.shipped > 0, "the workload must commit and ship records");
        assert_eq!(report.final_lag, 0, "a fault-free wire converges every round");
        assert_eq!(h.applied(), h.primary_committed());
        h.assert_replica_matches_committed_prefix();
        let promoted = h.failover();
        // The promoted kernel serves the workload file.
        let mut fs = promoted.fs.borrow_mut();
        let fd = fs.open("repl.dat").expect("promoted replica has the workload file");
        let bytes = fs.read(fd, 0, 256).expect("readable");
        assert_eq!(bytes.len(), 256);
        drop(fs);
        assert_eq!(
            committed_state_fingerprint(&h.primary().fs.borrow().disk_image()),
            committed_state_fingerprint(&promoted.fs.borrow().disk_image()),
        );
    }

    #[test]
    fn lossy_wire_retransmits_until_convergence() {
        let mut h = ReplHarness::new(0xB2, ReplConfig::default());
        let plane = Rc::clone(h.fault_plane());
        plane.set_rate(FaultSite::ReplShipDrop, 1, 4);
        plane.set_rate(FaultSite::ReplAckLoss, 1, 4);
        let report = h.run(12);
        assert!(report.dropped > 0, "a 1/4 drop rate over 12 rounds must lose frames");
        assert!(report.retransmits > 0, "loss without retransmission cannot converge");
        // Quiesce the wire and drain.
        plane.set_rate(FaultSite::ReplShipDrop, 0, 1);
        plane.set_rate(FaultSite::ReplAckLoss, 0, 1);
        for _ in 0..16 {
            if h.lag() == 0 {
                break;
            }
            h.ship_round();
        }
        assert_eq!(h.lag(), 0, "retransmission must drain the window");
        h.assert_replica_matches_committed_prefix();
        h.failover();
    }

    #[test]
    fn replica_torn_apply_rewinds_and_reaccepts_the_retransmission() {
        // MidJournal tears the record on the replica: recovery discards
        // the tail and skips its sequence, and the cursor rewind is
        // what lets the retransmission through.
        let cfg = ReplConfig { crash_site: FaultSite::KernelCrashMidJournal, ..Default::default() };
        let mut h = ReplHarness::new(0xC3, cfg);
        let plane = Rc::clone(h.fault_plane());
        plane.arm(FaultSite::ReplReplicaCrash, 2);
        let report = h.run(8);
        assert_eq!(report.replica_crashes, 1);
        assert_eq!(h.replica_reboots(), 1);
        for _ in 0..8 {
            if h.lag() == 0 {
                break;
            }
            h.ship_round();
        }
        assert_eq!(h.lag(), 0);
        assert_eq!(h.applied(), h.primary_committed());
        h.assert_replica_matches_committed_prefix();
        h.failover();
    }

    #[test]
    fn primary_death_fails_over_to_a_byte_identical_replica() {
        let cfg =
            ReplConfig { crash_site: FaultSite::KernelCrashAfterCommit, ..Default::default() };
        let mut h = ReplHarness::new(0xD4, cfg);
        let plane = Rc::clone(h.fault_plane());
        plane.arm(FaultSite::ReplPrimaryCrash, 4);
        let report = h.run(10);
        assert!(report.primary_died);
        assert!(h.primary_dead());
        // failover() drains the unacked tail — including the doomed
        // transaction the primary committed right before dying — and
        // asserts byte-identity before promoting.
        let promoted = h.failover();
        assert_eq!(
            committed_state_fingerprint(&h.primary().fs.borrow().disk_image()),
            committed_state_fingerprint(&promoted.fs.borrow().disk_image()),
        );
    }

    #[test]
    fn same_seed_runs_are_byte_identical() {
        let run = || {
            let cfg = ReplConfig {
                crash_site: FaultSite::KernelCrashMidCheckpoint,
                ..Default::default()
            };
            let mut h = ReplHarness::new(0xE5, cfg);
            let plane = Rc::clone(h.fault_plane());
            plane.set_rate(FaultSite::ReplShipDrop, 1, 5);
            plane.arm(FaultSite::ReplReplicaCrash, 3);
            h.run(10);
            let digest = (
                h.merged_trace().serialize(),
                h.metrics_plane().expose(),
                committed_state_fingerprint(&h.replica().fs.borrow().disk_image()),
            );
            digest
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0, "trace streams diverged across same-seed runs");
        assert_eq!(a.1, b.1, "metrics diverged across same-seed runs");
        assert_eq!(a.2, b.2, "replica images diverged across same-seed runs");
    }
}
