//! The VINO kernel facade: every subsystem wired together, with the
//! install entry points for each graft class and the network-event
//! dispatch loop of §3.5.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use vino_dev::disk::DiskImage;
use vino_dev::nic::{NetEvent, Nic, Port};
use vino_dev::Disk;
use vino_fs::{FileSystem, FsError, RecoveryReport};
use vino_mem::{MemorySystem, VasId};
use vino_misfit::{MisfitTool, SignedImage, SigningKey};
use vino_rm::{Limits, PrincipalId};
use vino_sim::fault::FaultPlane;
use vino_sim::metrics::MetricsPlane;
use vino_sim::obs::Obs;
use vino_sim::profile::ProfilePlane;
use vino_sim::trace::{PostMortem, TraceEvent, TracePlane};
use vino_sim::watch::WatchPlane;
use vino_sim::{ThreadId, VirtualClock};
use vino_vm::isa::Program;

use crate::adapters::{
    share, EvictGraftAdapter, RaGraftAdapter, SchedGraftAdapter, SharedGraft, StreamGraftAdapter,
    APP_BUF,
};
use crate::admission::{AdmissionController, Decision};
use crate::engine::GraftEngine;
use crate::loader::{load_graft, InstallError, InstallOpts};
use crate::points::{EventPoint, GraftNamespace, HandlerReport, PointKind};

/// Standard graft-point names registered at boot.
pub mod point_names {
    /// Per-open-file read-ahead policy (§4.1, Figure 1).
    pub const COMPUTE_RA: &str = "open_file/compute-ra";
    /// Per-VAS page-eviction policy (§4.2).
    pub const PICK_VICTIM: &str = "vas/pick-victim";
    /// Per-thread scheduling delegation (§4.3).
    pub const SCHEDULE_DELEGATE: &str = "thread/schedule-delegate";
    /// Stream transform position (§4.4).
    pub const STREAM_TRANSFORM: &str = "stream/transform";
    /// The global scheduler — restricted (§2.3's "highly biased
    /// scheduler" attack).
    pub const GLOBAL_SCHEDULER: &str = "kernel/global-scheduler";
    /// The security-enforcement module — restricted (Rule 5).
    pub const SECURITY_POLICY: &str = "kernel/security-policy";
    /// Per-port packet filter / steering point on the RX path
    /// (`vino-net`'s graftable demux — the canonical packet-filter
    /// extension).
    pub const PACKET_FILTER: &str = "net/packet-filter";
}

/// Boot-time configuration.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// Buffer-cache capacity in blocks.
    pub cache_blocks: usize,
    /// Physical memory capacity in pages.
    pub memory_pages: usize,
    /// Maximum files on the volume.
    pub max_files: u32,
    /// Passphrase from which the MiSFIT signing key is derived.
    pub signing_passphrase: String,
    /// Virtual milliseconds between debug-plane checkpoints. Batteries
    /// that checkpoint (`vino-bench`'s debug storm) capture a restore
    /// point every this-many virtual ms; `0` disables checkpointing.
    pub checkpoint_interval_ms: u64,
    /// Flight-recorder ring capacity, in trace records, for planes
    /// built from this config (see `TracePlane::with_capacity`).
    pub trace_capacity: usize,
    /// Post-mortem window: how many trailing trace records a crash
    /// report captures (see `TracePlane::set_post_mortem_window`).
    pub post_mortem_window: usize,
}

impl Default for KernelConfig {
    fn default() -> KernelConfig {
        KernelConfig {
            cache_blocks: 256,
            memory_pages: 512,
            max_files: 64,
            signing_passphrase: "vino-default-key".to_string(),
            checkpoint_interval_ms: 250,
            trace_capacity: vino_sim::trace::DEFAULT_CAPACITY,
            post_mortem_window: vino_sim::trace::DEFAULT_POST_MORTEM_WINDOW,
        }
    }
}

/// Rejected plane attachment.
///
/// The `Kernel::attach_*_plane` calls are attach-once: grafts bind the
/// planes present at install time, so silently swapping planes mid-run
/// would leave earlier grafts on the old plane — a half-attached state
/// with nondeterministic coverage. The contract is therefore *error on
/// double attach*: each plane kind has one slot in the kernel's shared
/// [`Obs`] handle, and a slot that is already filled refuses.
pub use vino_sim::plane::AttachError;

/// The result of dispatching one network event.
#[derive(Debug)]
pub struct EventReport {
    /// The port the event arrived on.
    pub port: Port,
    /// Per-handler outcomes, in dispatch order.
    pub handlers: Vec<HandlerReport>,
}

/// The kernel: subsystems plus the grafting layer.
pub struct Kernel {
    /// The virtual clock.
    pub clock: Rc<VirtualClock>,
    /// The graft engine (transactions, resources, callable table).
    pub engine: Rc<GraftEngine>,
    /// The scheduler.
    pub sched: RefCell<vino_sched::Scheduler>,
    /// The virtual-memory system.
    pub mem: RefCell<MemorySystem>,
    /// The file system.
    pub fs: RefCell<FileSystem>,
    /// The network interface.
    pub nic: RefCell<Nic>,
    /// The trusted MiSFIT tool instance (shares the kernel's key).
    pub tool: MisfitTool,
    namespace: RefCell<GraftNamespace>,
    event_points: RefCell<HashMap<Port, EventPoint>>,
    fn_grafts: RefCell<HashMap<String, SharedGraft>>,
    admission: RefCell<AdmissionController>,
}

impl Kernel {
    /// Boots a kernel with the default configuration.
    pub fn boot() -> Rc<Kernel> {
        Kernel::boot_with(KernelConfig::default())
    }

    /// Boots a kernel with an explicit configuration.
    pub fn boot_with(cfg: KernelConfig) -> Rc<Kernel> {
        Kernel::boot_with_clock(cfg, VirtualClock::new())
    }

    /// Boots a kernel on an externally supplied virtual clock. Several
    /// kernels booted on one clock advance in lock-step — the
    /// replication harness drives a primary and a replica this way, so
    /// every cross-kernel interleaving is a deterministic function of
    /// the seed.
    pub fn boot_with_clock(cfg: KernelConfig, clock: Rc<VirtualClock>) -> Rc<Kernel> {
        let disk = Disk::new(Rc::clone(&clock));
        let fs = FileSystem::format(Rc::clone(&clock), disk, cfg.cache_blocks, cfg.max_files);
        Kernel::assemble(cfg, clock, fs)
    }

    /// Boots a kernel over the surviving disk image of a crashed (or
    /// cleanly shut down) kernel: instead of formatting a fresh volume,
    /// the disk is reconstructed from `image` and mounted, which runs
    /// journal recovery (`FileSystem::recover`) before any subsystem
    /// touches it. This is the crash/remount half of the kernel
    /// lifecycle — snapshot the dying kernel with
    /// [`Kernel::crash_image`], boot a fresh one here.
    pub fn boot_from_image(cfg: KernelConfig, image: DiskImage) -> Result<Rc<Kernel>, FsError> {
        Kernel::boot_from_image_with_clock(cfg, VirtualClock::new(), image)
    }

    /// [`Kernel::boot_from_image`] on an externally supplied virtual
    /// clock — the failover path: the replication harness promotes a
    /// caught-up replica over its own disk image without leaving the
    /// shared timeline. A malformed image (block vector disagreeing
    /// with its geometry) is refused as [`FsError::BadVolume`].
    pub fn boot_from_image_with_clock(
        cfg: KernelConfig,
        clock: Rc<VirtualClock>,
        image: DiskImage,
    ) -> Result<Rc<Kernel>, FsError> {
        let disk = Disk::from_image(Rc::clone(&clock), image).map_err(|_| FsError::BadVolume)?;
        let fs = FileSystem::mount(Rc::clone(&clock), disk, cfg.cache_blocks)?;
        Ok(Kernel::assemble(cfg, clock, fs))
    }

    fn assemble(cfg: KernelConfig, clock: Rc<VirtualClock>, fs: FileSystem) -> Rc<Kernel> {
        // One observation handle for the whole kernel: the file system
        // (and its disk) hold it from mount; every other subsystem
        // shares it from here, so each attach reaches them all.
        let obs = fs.obs().clone();
        let engine = GraftEngine::with_obs(obs.clone());
        let mut ns = GraftNamespace::new();
        ns.define(point_names::COMPUTE_RA, PointKind::Function { restricted: false });
        ns.define(point_names::PICK_VICTIM, PointKind::Function { restricted: false });
        ns.define(point_names::SCHEDULE_DELEGATE, PointKind::Function { restricted: false });
        ns.define(point_names::STREAM_TRANSFORM, PointKind::Function { restricted: false });
        ns.define(point_names::GLOBAL_SCHEDULER, PointKind::Function { restricted: true });
        ns.define(point_names::SECURITY_POLICY, PointKind::Function { restricted: true });
        ns.define(point_names::PACKET_FILTER, PointKind::Function { restricted: false });
        Rc::new(Kernel {
            sched: RefCell::new(vino_sched::Scheduler::new(Rc::clone(&clock))),
            mem: RefCell::new(MemorySystem::new(Rc::clone(&clock), cfg.memory_pages)),
            fs: RefCell::new(fs),
            nic: RefCell::new(Nic::with_obs(obs.clone())),
            tool: MisfitTool::with_obs(SigningKey::from_passphrase(&cfg.signing_passphrase), obs),
            namespace: RefCell::new(ns),
            event_points: RefCell::new(HashMap::new()),
            fn_grafts: RefCell::new(HashMap::new()),
            admission: RefCell::new(AdmissionController::new()),
            engine,
            clock,
        })
    }

    /// The graft namespace (Figure 1's lookup target).
    pub fn namespace(&self) -> std::cell::Ref<'_, GraftNamespace> {
        self.namespace.borrow()
    }

    /// Attaches the fault plane. Every `attach_*_plane` fills one slot
    /// of the kernel's shared [`Obs`] handle, so every subsystem sees
    /// the plane from this call on and grafts loaded after it bind it.
    /// Here that means disk I/O, the file system's crash points, lock
    /// time-outs, resource exhaustion, image verification and the VM's
    /// per-instruction trap site: one plane, one seed, one
    /// deterministic schedule across the whole kernel.
    ///
    /// Attach-once: a second call returns
    /// [`AttachError::AlreadyAttached`] (see [`AttachError`] for why a
    /// silent swap would be wrong). The same holds for every plane.
    pub fn attach_fault_plane(&self, plane: Rc<FaultPlane>) -> Result<(), AttachError> {
        self.engine.obs.attach_fault(plane)
    }

    /// Attaches the trace plane: one canonical event stream across the
    /// whole kernel (see `docs/TRACING.md`). Recovery events from mount
    /// are replayed into it.
    pub fn attach_trace_plane(&self, plane: Rc<TracePlane>) -> Result<(), AttachError> {
        self.engine.obs.attach_trace(Rc::clone(&plane))?;
        self.replay_recovery(|only| only.attach_trace(plane));
        Ok(())
    }

    /// Attaches the metrics plane: counters derived from the event
    /// stream, histograms and the per-invocation overhead-attribution
    /// ledger (see `docs/METRICS.md`). Recovery events from mount are
    /// replayed into it. Recording never charges the virtual clock.
    pub fn attach_metrics_plane(&self, plane: Rc<MetricsPlane>) -> Result<(), AttachError> {
        self.engine.obs.attach_metrics(Rc::clone(&plane))?;
        self.replay_recovery(|only| only.attach_metrics(plane));
        Ok(())
    }

    /// Hands the mount-time recovery events (journal replays and
    /// discards, which run before any plane can attach) to a plane
    /// attached now, through a handle holding only that plane.
    fn replay_recovery(&self, attach: impl FnOnce(&Obs) -> Result<(), AttachError>) {
        let only = Obs::new(Rc::clone(&self.clock));
        attach(&only).expect("a fresh handle has every slot free");
        self.fs.borrow().replay_recovery(&only);
    }

    /// Attaches the profile plane: the cycle-exact per-PC profile, call
    /// graphs and invocation span trees (see `docs/PROFILING.md`).
    /// Recording never charges the virtual clock.
    pub fn attach_profile_plane(&self, plane: Rc<ProfilePlane>) -> Result<(), AttachError> {
        self.engine.obs.attach_profile(plane)
    }

    /// Attaches the watch plane: the wrapper's per-principal install,
    /// invocation-cost, abort and quarantine windows, journal occupancy,
    /// lock time-out and RX shed rates. It also arms the admission
    /// controller: from now on every install is gated on the plane's
    /// firing alerts (see `docs/WATCH.md`). Recording never charges the
    /// virtual clock, so only install admissibility can change.
    pub fn attach_watch_plane(&self, plane: Rc<WatchPlane>) -> Result<(), AttachError> {
        self.engine.obs.attach_watch(Rc::clone(&plane))?;
        if let Some(tp) = self.engine.obs.trace() {
            plane.set_trace_plane(Rc::clone(tp));
        }
        Ok(())
    }

    /// The attached watch plane, for polls and snapshots
    /// ([`WatchPlane::poll`], [`WatchPlane::snapshot`],
    /// [`WatchPlane::serialize`]). `None` when no plane is attached.
    pub fn watch(&self) -> Option<Rc<WatchPlane>> {
        self.engine.obs.watch().cloned()
    }

    /// The admission controller gating the install path (inspection,
    /// policy and checkpoint state). It only acts when a watch plane
    /// is attached — without one there are no alerts to consult.
    pub fn admission(&self) -> std::cell::RefMut<'_, AdmissionController> {
        self.admission.borrow_mut()
    }

    /// The attached profile plane, for renders
    /// ([`ProfilePlane::folded`], [`ProfilePlane::chrome_trace`],
    /// [`ProfilePlane::render_top`], [`ProfilePlane::snapshot`]).
    /// `None` when no plane is attached.
    pub fn profile(&self) -> Option<Rc<ProfilePlane>> {
        self.engine.obs.profile().cloned()
    }

    /// The attached metrics plane, for snapshots ([`MetricsPlane::snapshot`],
    /// [`MetricsPlane::expose`], [`MetricsPlane::health`]). `None` when
    /// no plane is attached.
    pub fn metrics(&self) -> Option<Rc<MetricsPlane>> {
        self.engine.obs.metrics().cloned()
    }

    /// The persistent disk state as of this instant — what an immediate
    /// power cut would leave on the platters. Pass it to
    /// [`Kernel::boot_from_image`] to model crash-and-recover. Works on
    /// a kernel whose file system has already halted.
    pub fn crash_image(&self) -> DiskImage {
        self.fs.borrow().disk_image()
    }

    /// Drives the kernel to a checkpointable instant: no live
    /// transactions (asserted), transaction time-outs drained, the
    /// journal quiesced, caches and prefetch state dropped, and the
    /// disk mechanism re-homed, so [`Kernel::crash_image`] plus the
    /// planes' `export_state` snapshots fully determine the replayed
    /// future. A kernel restored from such a capture (boot the image,
    /// quiesce again, rebuild scaffolding, replant plane state) resumes
    /// the exact event stream of the uninterrupted run — see
    /// `docs/DEBUGGING.md`.
    ///
    /// Panics if a transaction is still live or the file system has
    /// halted: checkpoints are only meaningful between battery steps.
    pub fn quiesce_for_checkpoint(&self) {
        self.engine.txn.borrow_mut().clear_timeouts();
        self.fs.borrow_mut().quiesce_for_checkpoint();
    }

    /// What mount-time journal recovery found, for kernels booted via
    /// [`Kernel::boot_from_image`]. `None` on a freshly formatted boot.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.fs.borrow().recovery_report()
    }

    /// The flight recorder's latest abort snapshot, if any invocation
    /// has aborted since the trace plane was attached. `None` when no
    /// plane is attached or every invocation committed cleanly.
    pub fn post_mortem(&self) -> Option<PostMortem> {
        self.engine.obs.trace().and_then(|tp| tp.post_mortem())
    }

    /// The engine's reliability manager (failure ledgers, quarantine).
    pub fn reliability(&self) -> std::cell::RefMut<'_, crate::reliability::ReliabilityManager> {
        self.engine.reliability.borrow_mut()
    }

    /// Convenience: compile (assemble + MiSFIT-process) graft source
    /// into a signed image using the kernel's trusted tool. In the
    /// paper this step happens in the application's build pipeline.
    pub fn compile_graft(&self, name: &str, asm_src: &str) -> Result<SignedImage, String> {
        let prog = vino_vm::assemble(name, asm_src, &crate::hostfn::symbols())
            .map_err(|e| e.to_string())?;
        let (image, _) = self.tool.process(&prog).map_err(|e| e.to_string())?;
        Ok(image)
    }

    /// Compiles GraftC source (the C-like graft language; see
    /// [`crate::graftc`]) through the full pipeline: compile →
    /// instrument → sign.
    pub fn compile_graft_c(&self, name: &str, src: &str) -> Result<SignedImage, String> {
        let prog = crate::graftc::compile_source(name, src).map_err(|e| e.to_string())?;
        let (image, _) = self.tool.process(&prog).map_err(|e| e.to_string())?;
        Ok(image)
    }

    /// Compiles WITHOUT SFI instrumentation (the benchmark "unsafe
    /// path"); still signed so the loader accepts it.
    pub fn compile_graft_unsafe(&self, name: &str, asm_src: &str) -> Result<SignedImage, String> {
        let prog = vino_vm::assemble(name, asm_src, &crate::hostfn::symbols())
            .map_err(|e| e.to_string())?;
        Ok(self.tool.seal(&prog))
    }

    /// Direct access to a raw program seal for pre-built programs.
    pub fn seal_program(&self, prog: &Program) -> SignedImage {
        self.tool.seal(prog)
    }

    /// Creates an application principal with the given limits.
    pub fn create_app(&self, limits: Limits) -> PrincipalId {
        self.engine.rm.borrow_mut().create_principal(limits)
    }

    /// Spawns a kernel thread.
    pub fn spawn_thread(&self, name: &str) -> ThreadId {
        self.sched.borrow_mut().spawn(name)
    }

    fn check_point(&self, name: &str, opts: &InstallOpts) -> Result<PointKind, InstallError> {
        let kind = self
            .namespace
            .borrow()
            .lookup(name)
            .ok_or_else(|| InstallError::NoSuchPoint(name.to_string()))?;
        if let PointKind::Function { restricted: true } = kind {
            if !opts.privileged {
                return Err(InstallError::Restricted { point: name.to_string() });
            }
        }
        Ok(kind)
    }

    /// The admission gate at the head of every install funnel: with a
    /// watch plane attached, poll it and ask the controller whether
    /// `installer` may install right now. Decisions are traced
    /// (`watch.admit` / `watch.deny`) and countered
    /// (`vino_admission_*_total`). Without a watch plane there are no
    /// alerts to consult and every install is admissible, so kernels
    /// that never attach one behave exactly as before.
    fn admission_gate(&self, installer: PrincipalId) -> Result<(), InstallError> {
        let obs = &self.engine.obs;
        let Some(wp) = obs.watch() else { return Ok(()) };
        let firing = wp.principal_firing(installer.0);
        let decision = self.admission.borrow_mut().decide(installer, firing, self.clock.now());
        match decision {
            Decision::Allowed => {
                obs.emit(TraceEvent::AdmissionAllow { principal: installer.0 });
                Ok(())
            }
            Decision::Denied { until } => {
                obs.emit(TraceEvent::AdmissionDeny { principal: installer.0, until: until.get() });
                Err(InstallError::AdmissionDenied { principal: installer, until })
            }
        }
    }

    fn load(
        &self,
        image: &SignedImage,
        installer: PrincipalId,
        thread: ThreadId,
        opts: &InstallOpts,
    ) -> Result<SharedGraft, InstallError> {
        self.admission_gate(installer)?;
        Ok(share(load_graft(&self.engine, &self.tool, image, installer, thread, opts)?))
    }

    /// Installs a read-ahead graft on an open file (Figure 1's
    /// `ra_handle.replace(my_ra)`).
    pub fn install_ra_graft(
        &self,
        fd: vino_fs::Fd,
        image: &SignedImage,
        installer: PrincipalId,
        thread: ThreadId,
        opts: &InstallOpts,
    ) -> Result<SharedGraft, InstallError> {
        self.check_point(point_names::COMPUTE_RA, opts)?;
        let graft = self.load(image, installer, thread, opts)?;
        self.fs
            .borrow_mut()
            .set_ra_delegate(fd, Box::new(RaGraftAdapter::new(Rc::clone(&graft))))
            .map_err(|_| InstallError::NoSuchPoint(format!("open_file {fd:?}")))?;
        Ok(graft)
    }

    /// Installs a page-eviction graft on a VAS (§4.2).
    pub fn install_evict_graft(
        &self,
        vas: VasId,
        image: &SignedImage,
        installer: PrincipalId,
        thread: ThreadId,
        opts: &InstallOpts,
    ) -> Result<SharedGraft, InstallError> {
        self.check_point(point_names::PICK_VICTIM, opts)?;
        let graft = self.load(image, installer, thread, opts)?;
        self.mem
            .borrow_mut()
            .set_eviction_delegate(vas, Box::new(EvictGraftAdapter::new(Rc::clone(&graft))));
        Ok(graft)
    }

    /// Installs a schedule-delegate graft on a thread (§4.3).
    pub fn install_sched_graft(
        &self,
        target: ThreadId,
        image: &SignedImage,
        installer: PrincipalId,
        opts: &InstallOpts,
    ) -> Result<SharedGraft, InstallError> {
        self.check_point(point_names::SCHEDULE_DELEGATE, opts)?;
        let graft = self.load(image, installer, target, opts)?;
        let ok = self
            .sched
            .borrow_mut()
            .set_delegate(target, Box::new(SchedGraftAdapter::new(Rc::clone(&graft))));
        if !ok {
            return Err(InstallError::NoSuchPoint(format!("thread {target}")));
        }
        Ok(graft)
    }

    /// Installs a stream-transform graft (§4.4), returning the adapter
    /// the data path calls.
    pub fn install_stream_graft(
        &self,
        image: &SignedImage,
        installer: PrincipalId,
        thread: ThreadId,
        opts: &InstallOpts,
    ) -> Result<StreamGraftAdapter, InstallError> {
        self.check_point(point_names::STREAM_TRANSFORM, opts)?;
        let mut o = opts.clone();
        o.seg_size = o.seg_size.max(32 * 1024); // Room for 8KB in + out.
        let graft = self.load(image, installer, thread, &o)?;
        Ok(StreamGraftAdapter { instance: graft })
    }

    /// Installs onto an arbitrary *function* graft point by name —
    /// including restricted points, which demand privilege (Rule 5).
    pub fn install_function_graft(
        &self,
        point: &str,
        image: &SignedImage,
        installer: PrincipalId,
        thread: ThreadId,
        opts: &InstallOpts,
    ) -> Result<SharedGraft, InstallError> {
        match self.check_point(point, opts)? {
            PointKind::Function { .. } => {}
            PointKind::Event => return Err(InstallError::NoSuchPoint(point.to_string())),
        }
        let graft = self.load(image, installer, thread, opts)?;
        self.fn_grafts.borrow_mut().insert(point.to_string(), Rc::clone(&graft));
        Ok(graft)
    }

    /// Looks up a function graft installed by name.
    pub fn function_graft(&self, point: &str) -> Option<SharedGraft> {
        self.fn_grafts.borrow().get(point).cloned()
    }

    /// Installs a packet-filter graft for one port's RX path. The full
    /// loader pipeline applies — MiSFIT verification, quarantine and
    /// blame gates — and the graft is registered under
    /// `net/packet-filter/port-N` so diagnostics can find it. The packet
    /// plane (`vino-net`) calls this and owns the per-port dispatch.
    pub fn install_packet_filter(
        &self,
        port: Port,
        image: &SignedImage,
        installer: PrincipalId,
        thread: ThreadId,
        opts: &InstallOpts,
    ) -> Result<SharedGraft, InstallError> {
        self.check_point(point_names::PACKET_FILTER, opts)?;
        let graft = self.load(image, installer, thread, opts)?;
        self.fn_grafts
            .borrow_mut()
            .insert(format!("{}/port-{}", point_names::PACKET_FILTER, port.0), Rc::clone(&graft));
        Ok(graft)
    }

    /// Registers an event graft point for a port (e.g. TCP 80 for the
    /// HTTP server, UDP 2049 for NFS — §3.5).
    pub fn define_event_point(&self, port: Port) {
        self.namespace.borrow_mut().define(format!("net/port-{}", port.0), PointKind::Event);
        self.event_points.borrow_mut().entry(port).or_default();
    }

    /// Adds an event-handler graft for `port` with dispatch `order`.
    pub fn install_event_graft(
        &self,
        port: Port,
        order: i32,
        image: &SignedImage,
        installer: PrincipalId,
        opts: &InstallOpts,
    ) -> Result<SharedGraft, InstallError> {
        if !self.event_points.borrow().contains_key(&port) {
            return Err(InstallError::NoSuchPoint(format!("net/port-{}", port.0)));
        }
        // Each event handler gets a worker-thread identity at dispatch;
        // load it against a fresh thread id placeholder.
        let worker = self.spawn_thread(&format!("event-handler-{}", port.0));
        let graft = self.load(image, installer, worker, opts)?;
        self.event_points
            .borrow_mut()
            .get_mut(&port)
            .expect("checked")
            .add_handler(Rc::clone(&graft), order);
        Ok(graft)
    }

    /// Drains the NIC, dispatching each event to its port's handlers.
    /// "VINO spawns a worker thread and begins a transaction. It then
    /// invokes the grafted function. When the grafted function returns,
    /// the worker thread commits the transaction and exits" (§3.5) —
    /// the begin/commit lives in the wrapper each handler runs under.
    pub fn dispatch_net_events(&self) -> Vec<EventReport> {
        let mut reports = Vec::new();
        loop {
            let Some(event) = self.nic.borrow_mut().poll() else { break };
            let port = event.port();
            let mut points = self.event_points.borrow_mut();
            let Some(ep) = points.get_mut(&port) else { continue };
            let args = match &event {
                NetEvent::TcpConnect { port, conn_fd } => [port.0 as u64, *conn_fd as u64, 0, 0],
                NetEvent::UdpPacket { port, payload } => {
                    // Copy the datagram into each handler's shared
                    // region is handler-specific; pass length and let
                    // handlers fetch via their shared buffer.
                    [port.0 as u64, payload.len() as u64, 0, 0]
                }
            };
            // For UDP, marshal the payload into every handler segment.
            if let NetEvent::UdpPacket { payload, .. } = &event {
                ep.for_each_handler(|g| {
                    let mut inst = g.borrow_mut();
                    let n = payload.len().min(2048);
                    if let Some(buf) = inst.mem().graft_bytes_mut(APP_BUF, n) {
                        buf.copy_from_slice(&payload[..n]);
                    }
                });
            }
            let handlers = ep.dispatch(args);
            ep.reap_dead();
            reports.push(EventReport { port, handlers });
        }
        reports
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vino_fs::layout::BLOCK_SIZE;
    use vino_rm::ResourceKind;

    fn boot() -> Rc<Kernel> {
        Kernel::boot()
    }

    fn app(k: &Kernel) -> PrincipalId {
        k.create_app(Limits::of(&[
            (ResourceKind::KernelHeap, 1 << 20),
            (ResourceKind::Memory, 1 << 24),
        ]))
    }

    #[test]
    fn boot_registers_standard_points() {
        let k = boot();
        let ns = k.namespace();
        assert_eq!(
            ns.lookup(point_names::COMPUTE_RA),
            Some(PointKind::Function { restricted: false })
        );
        assert_eq!(
            ns.lookup(point_names::GLOBAL_SCHEDULER),
            Some(PointKind::Function { restricted: true })
        );
    }

    #[test]
    fn ra_graft_full_pipeline() {
        let k = boot();
        let a = app(&k);
        let t = k.spawn_thread("app");
        k.fs.borrow_mut().create("db", 64 * BLOCK_SIZE as u64).unwrap();
        let fd = k.fs.borrow_mut().open("db").unwrap();
        // Graft: always prefetch the block after the read.
        let image = k
            .compile_graft(
                "next-block-ra",
                "
                add r1, r1, r2
                const r2, 4096
                call $ra_submit
                halt r0
                ",
            )
            .unwrap();
        k.install_ra_graft(fd, &image, a, t, &InstallOpts::default()).unwrap();
        assert!(k.fs.borrow().has_ra_delegate(fd));
        k.fs.borrow_mut().read(fd, 0, 4096).unwrap();
        assert_eq!(k.fs.borrow().stats().ra_graft_calls, 1);
        assert_eq!(k.fs.borrow().stats().prefetches_issued, 1);
    }

    #[test]
    fn restricted_point_requires_privilege() {
        let k = boot();
        let a = app(&k);
        let t = k.spawn_thread("app");
        let image = k.compile_graft("biased-sched", "halt r1").unwrap();
        // Unprivileged install: refused (the §2.3 attack).
        let err = k
            .install_function_graft(
                point_names::GLOBAL_SCHEDULER,
                &image,
                a,
                t,
                &InstallOpts::default(),
            )
            .unwrap_err();
        assert!(matches!(err, InstallError::Restricted { .. }));
        // Privileged install: accepted.
        let opts = InstallOpts { privileged: true, ..InstallOpts::default() };
        k.install_function_graft(point_names::GLOBAL_SCHEDULER, &image, a, t, &opts).unwrap();
        assert!(k.function_graft(point_names::GLOBAL_SCHEDULER).is_some());
    }

    #[test]
    fn unknown_point_rejected() {
        let k = boot();
        let a = app(&k);
        let t = k.spawn_thread("app");
        let image = k.compile_graft("g", "halt r0").unwrap();
        let err = k
            .install_function_graft("kernel/nonexistent", &image, a, t, &InstallOpts::default())
            .unwrap_err();
        assert!(matches!(err, InstallError::NoSuchPoint(_)));
    }

    #[test]
    fn event_grafts_dispatch_on_tcp_connect() {
        // Figure 2's HTTP server: a handler on TCP port 80 that records
        // the connection fd it served into kernel state.
        let k = boot();
        let a = app(&k);
        k.define_event_point(Port(80));
        let image = k
            .compile_graft(
                "http-server",
                "
                ; r1 = port, r2 = conn fd. Serve: kv[10] = fd.
                const r1, 10
                call $kv_set   ; note: r2 already holds the fd
                halt r2
                ",
            )
            .unwrap();
        k.install_event_graft(Port(80), 0, &image, a, &InstallOpts::default()).unwrap();
        let fd = k.nic.borrow_mut().inject_tcp_connect(Port(80)).unwrap();
        let reports = k.dispatch_net_events();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].handlers.len(), 1);
        assert_eq!(k.engine.kv_read(10), fd as u64);
    }

    #[test]
    fn misbehaving_event_handler_unloaded_but_events_flow() {
        let k = boot();
        let a = app(&k);
        k.define_event_point(Port(80));
        let bad = k.compile_graft("bad", "const r1, 0\ndiv r0, r1, r1\nhalt r0").unwrap();
        let good =
            k.compile_graft("good", "const r1, 11\nconst r2, 1\ncall $kv_set\nhalt r0").unwrap();
        k.install_event_graft(Port(80), 0, &bad, a, &InstallOpts::default()).unwrap();
        k.install_event_graft(Port(80), 1, &good, a, &InstallOpts::default()).unwrap();
        k.nic.borrow_mut().inject_tcp_connect(Port(80));
        let reports = k.dispatch_net_events();
        assert_eq!(reports[0].handlers.len(), 2, "both handlers consulted");
        // The bad handler died; only the good one remains for event 2.
        k.nic.borrow_mut().inject_tcp_connect(Port(80));
        let reports = k.dispatch_net_events();
        assert_eq!(reports[0].handlers.len(), 1);
        assert_eq!(reports[0].handlers[0].graft, "good");
    }

    #[test]
    fn repeated_aborts_quarantine_reinstall_until_backoff() {
        // The reliability tentpole, end to end through the kernel: a
        // graft that keeps trapping is refused reinstall after the
        // third abort, and accepted again once the backoff expires.
        let k = boot();
        let a = app(&k);
        let t = k.spawn_thread("app");
        let image = k.compile_graft("crasher", "const r1, 0\ndiv r0, r1, r1\nhalt r0").unwrap();
        for _ in 0..3 {
            let g = k
                .install_function_graft(
                    point_names::COMPUTE_RA,
                    &image,
                    a,
                    t,
                    &InstallOpts::default(),
                )
                .unwrap();
            let out = g.borrow_mut().invoke([0; 4]);
            assert!(matches!(out, crate::engine::InvokeOutcome::Aborted { .. }));
        }
        let err = k
            .install_function_graft(point_names::COMPUTE_RA, &image, a, t, &InstallOpts::default())
            .unwrap_err();
        let InstallError::Quarantined { graft, until } = err else {
            panic!("expected quarantine, got {err}");
        };
        assert_eq!(graft, "crasher");
        assert_eq!(k.reliability().ledger("crasher").unwrap().episodes, 1);

        // Quarantine expires by the virtual clock; reinstall succeeds.
        k.clock.advance_to(until);
        k.install_function_graft(point_names::COMPUTE_RA, &image, a, t, &InstallOpts::default())
            .expect("backoff passed, reinstall permitted");
    }

    #[test]
    fn blame_ceiling_blocks_installer() {
        let k = boot();
        let a = app(&k);
        let t = k.spawn_thread("app");
        k.engine.rm.borrow_mut().set_blame_limit(a, 1);
        let image = k.compile_graft("crasher", "const r1, 0\ndiv r0, r1, r1\nhalt r0").unwrap();
        let g = k
            .install_function_graft(point_names::COMPUTE_RA, &image, a, t, &InstallOpts::default())
            .unwrap();
        g.borrow_mut().invoke([0; 4]);
        assert!(k.engine.rm.borrow().blame(a) > 0, "abort cost billed to the installer");
        let err = k
            .install_function_graft(point_names::COMPUTE_RA, &image, a, t, &InstallOpts::default())
            .unwrap_err();
        assert!(matches!(err, InstallError::BlameExceeded { principal } if principal == a));
    }

    #[test]
    fn attached_fault_plane_reaches_graft_vms() {
        use vino_sim::fault::{FaultPlane, FaultSite};
        let k = boot();
        let a = app(&k);
        let t = k.spawn_thread("app");
        let plane = FaultPlane::seeded(42);
        plane.arm(FaultSite::VmTrap, 2);
        k.attach_fault_plane(plane).unwrap();
        let image = k.compile_graft("victim", "const r1, 1\nconst r2, 2\nhalt r0").unwrap();
        let g = k
            .install_function_graft(point_names::COMPUTE_RA, &image, a, t, &InstallOpts::default())
            .unwrap();
        let out = g.borrow_mut().invoke([0; 4]);
        assert!(
            matches!(
                &out,
                crate::engine::InvokeOutcome::Aborted {
                    why: crate::engine::AbortedWhy::Trap(vino_vm::interp::Trap::Injected { .. }),
                    ..
                }
            ),
            "armed VmTrap fault fired inside the graft: {out:?}"
        );
        assert_eq!(
            k.reliability()
                .ledger("victim")
                .unwrap()
                .count(crate::reliability::FailureKind::InjectedFault),
            1,
            "injected fault ledgered"
        );
    }

    #[test]
    fn attach_planes_error_on_double_attach() {
        use vino_sim::fault::FaultPlane;
        use vino_sim::trace::TracePlane;
        let k = boot();
        k.attach_fault_plane(FaultPlane::seeded(1)).unwrap();
        assert_eq!(
            k.attach_fault_plane(FaultPlane::seeded(2)).unwrap_err(),
            AttachError::AlreadyAttached
        );
        let tp = TracePlane::new(Rc::clone(&k.clock));
        k.attach_trace_plane(Rc::clone(&tp)).unwrap();
        assert_eq!(k.attach_trace_plane(tp).unwrap_err(), AttachError::AlreadyAttached);
        let mp = vino_sim::metrics::MetricsPlane::new(Rc::clone(&k.clock));
        assert!(k.metrics().is_none(), "no metrics plane before attach");
        k.attach_metrics_plane(Rc::clone(&mp)).unwrap();
        assert_eq!(
            k.attach_metrics_plane(Rc::clone(&mp)).unwrap_err(),
            AttachError::AlreadyAttached
        );
        assert!(
            Rc::ptr_eq(&k.metrics().expect("attached"), &mp),
            "Kernel::metrics returns the attached plane"
        );
        let pp = vino_sim::profile::ProfilePlane::new(Rc::clone(&k.clock));
        assert!(k.profile().is_none(), "no profile plane before attach");
        k.attach_profile_plane(Rc::clone(&pp)).unwrap();
        assert_eq!(
            k.attach_profile_plane(Rc::clone(&pp)).unwrap_err(),
            AttachError::AlreadyAttached
        );
        assert!(
            Rc::ptr_eq(&k.profile().expect("attached"), &pp),
            "Kernel::profile returns the attached plane"
        );
    }

    #[test]
    fn attached_trace_plane_feeds_post_mortem() {
        use vino_sim::trace::{AbortKind, TracePlane};
        let k = boot();
        let a = app(&k);
        let t = k.spawn_thread("app");
        let tp = TracePlane::new(Rc::clone(&k.clock));
        k.attach_trace_plane(Rc::clone(&tp)).unwrap();
        assert!(k.post_mortem().is_none(), "no aborts yet, no post-mortem");
        // A graft that traps (div by zero) — one invocation, one abort.
        let image = k.compile_graft("crasher", "const r1, 0\ndiv r0, r1, r1\nhalt r0").unwrap();
        let g = k
            .install_function_graft(point_names::COMPUTE_RA, &image, a, t, &InstallOpts::default())
            .unwrap();
        g.borrow_mut().invoke([0; 4]);
        let pm = k.post_mortem().expect("abort produced a post-mortem");
        assert_eq!(pm.graft, "crasher");
        assert_eq!(pm.kind, AbortKind::Trap);
        assert!(
            pm.lines.iter().any(|l| l.contains("graft.abort")),
            "flight recorder window holds the abort event: {:#?}",
            pm.lines
        );
    }

    #[test]
    fn evict_graft_pipeline() {
        let k = boot();
        let a = app(&k);
        let t = k.spawn_thread("app");
        let vas = k.mem.borrow_mut().create_vas();
        // Graft: accept the victim (echo r1).
        let image = k.compile_graft("accept", "mov r0, r1\nhalt r0").unwrap();
        k.install_evict_graft(vas, &image, a, t, &InstallOpts::default()).unwrap();
        k.mem.borrow_mut().touch(vas, 0);
        k.mem.borrow_mut().touch(vas, 1);
        let (_, outcome) = k.mem.borrow_mut().evict_one().unwrap();
        assert_eq!(outcome, vino_mem::EvictOutcome::GraftAgreed);
    }

    #[test]
    fn sched_graft_pipeline() {
        let k = boot();
        let a = app(&k);
        let ui = k.spawn_thread("ui");
        let video = k.spawn_thread("video");
        // Graft: return runnable[1] (the second thread).
        let image = k
            .compile_graft(
                "handoff",
                "
                call $shared_base
                mov r5, r0
                loadw r0, [r5+12]
                halt r0
                ",
            )
            .unwrap();
        k.install_sched_graft(ui, &image, a, &InstallOpts::default()).unwrap();
        let (winner, _) = k.sched.borrow_mut().pick_and_switch().unwrap();
        assert_eq!(winner, video, "UI thread donated its slice");
    }

    #[test]
    fn stream_graft_pipeline() {
        let k = boot();
        let a = app(&k);
        let t = k.spawn_thread("app");
        let image = k
            .compile_graft(
                "xor-crypt",
                "
                const r4, 0
                const r5, 0xFF
                loop:
                bgeu r4, r3, done
                add r6, r1, r4
                loadb r7, [r6+0]
                xor r7, r7, r5
                add r6, r2, r4
                storeb r7, [r6+0]
                addi r4, r4, 1
                jmp loop
                done: halt r0
                ",
            )
            .unwrap();
        let mut stream = k.install_stream_graft(&image, a, t, &InstallOpts::default()).unwrap();
        let out = stream.transform(b"attack at dawn").unwrap();
        let back: Vec<u8> = out.iter().map(|b| b ^ 0xFF).collect();
        assert_eq!(back, b"attack at dawn");
    }
}
