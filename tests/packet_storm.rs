//! The packet-survival battery: a pinned-seed packet storm against a
//! mix of well-behaved and hostile packet filters.
//!
//! §5.1 drives VINO with "a suite of misbehaved grafts"; this battery
//! does the same to the packet plane. One kernel takes a ≥1M-packet
//! deterministic storm across eleven ports while five filter grafts
//! misbehave in the paper's canonical ways — an infinite loop (CPU
//! hog), a wild store (SFI Mem trap), a steering cycle (cut by the hop
//! budget, then condemned), a heap hoarder (resource-limit denial), and
//! an injected trap. Surviving means:
//!
//! - every hostile filter ends up forcibly unloaded, and repeated
//!   reinstallation of one trips quarantine;
//! - the accept-all default filter takes over each victim port and
//!   traffic keeps flowing;
//! - no packet is ever delivered twice (batch atomicity across aborts);
//! - packet accounting balances exactly: every admission is eventually
//!   accepted, dropped, steered, or cut, and the planes agree;
//! - two same-seed runs produce byte-identical trace and metrics
//!   snapshots.
//!
//! The small fixed-size variant is frozen as
//! `tests/goldens/packet_storm.{trace,metrics}`; regenerate with
//! `UPDATE_GOLDENS=1 cargo test --test packet_storm`.
//!
//! Seed and storm size are pinned but overridable:
//! `PACKET_STORM_SEED=… PACKET_STORM_PACKETS=… cargo test --test packet_storm`.

use std::collections::HashSet;
use std::path::PathBuf;
use std::rc::Rc;

use vino::core::adapters::SharedGraft;
use vino::core::{InstallError, InstallOpts, Kernel};
use vino::dev::Port;
use vino::net::{verdict_code, Packet, PacketPlane};
use vino::rm::{Limits, PrincipalId, ResourceKind};
use vino::sim::fault::{FaultPlane, FaultSite};
use vino::sim::metrics::{Counter, MetricsPlane};
use vino::sim::trace::TracePlane;
use vino::sim::{SplitMix64, ThreadId};

const DEFAULT_SEED: u64 = 3_405_691_582; // 0xCAFEBABE
const DEFAULT_PACKETS: u64 = 1_000_000;

/// The port map: one well-behaved filter, five hostiles, bulk default
/// traffic on 60..68.
const WELL: Port = Port(10);
const DOOMED: Port = Port(15);
const SPIN: Port = Port(20);
const WILD: Port = Port(30);
const CYCLE: Port = Port(40);
const HOARD: Port = Port(50);

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// Everything one storm run leaves behind.
struct StormTally {
    delivered: u64,
    trace: String,
    metrics: String,
}

struct Rig {
    kernel: Rc<Kernel>,
    plane: Rc<PacketPlane>,
    mp: Rc<MetricsPlane>,
    tp: Rc<TracePlane>,
    app: PrincipalId,
    thread: ThreadId,
}

fn boot_rig(seed: u64) -> Rig {
    let kernel = Kernel::boot();
    let fp = FaultPlane::seeded(seed);
    // Occasional forced ring overflows keep the shed/overflow paths
    // hot without drowning the storm.
    fp.set_rate(FaultSite::NetRxOverflow, 1, 8192);
    kernel.attach_fault_plane(fp).unwrap();
    let tp = TracePlane::with_capacity(Rc::clone(&kernel.clock), 1 << 14);
    kernel.attach_trace_plane(Rc::clone(&tp)).unwrap();
    let mp = MetricsPlane::new(Rc::clone(&kernel.clock));
    kernel.attach_metrics_plane(Rc::clone(&mp)).unwrap();
    let app = kernel.create_app(Limits::of(&[
        (ResourceKind::KernelHeap, 1 << 20),
        (ResourceKind::Memory, 1 << 24),
    ]));
    let thread = kernel.spawn_thread("storm");
    let plane = PacketPlane::new(Rc::clone(&kernel));
    Rig { kernel, plane, mp, tp, app, thread }
}

fn install(rig: &Rig, port: Port, name: &str, src: &str) -> SharedGraft {
    let image = rig.kernel.compile_graft(name, src).unwrap();
    rig.plane.install_filter(port, &image, rig.app, rig.thread, &InstallOpts::default()).unwrap()
}

/// Pumps the plane dry and drains every delivery, asserting the
/// no-double-delivery invariant as ids stream past.
fn pump_and_drain(rig: &Rig, seen: &mut HashSet<u64>) -> u64 {
    rig.plane.pump();
    let mut drained = 0;
    for port in rig.plane.open_ports() {
        for pkt in rig.plane.drain_delivered(port) {
            assert!(seen.insert(pkt.id), "packet {} delivered twice (port {})", pkt.id, port.0);
            drained += 1;
        }
    }
    drained
}

fn run_storm(seed: u64, n_packets: u64) -> StormTally {
    let rig = boot_rig(seed);
    let spin_src = "spin: jmp spin";

    // The filter zoo. WELL survives the battery; the other five are
    // §5.1-style hostiles.
    let well = install(
        &rig,
        WELL,
        "well-drop-odd",
        "andi r5, r3, 1\nbne r5, r0, t\nhalt r0\nt: const r5, 1\nhalt r5",
    );
    let doomed = install(&rig, DOOMED, "doomed-accept", "halt r0");
    let spin = install(&rig, SPIN, "spin-filter", spin_src);
    spin.borrow_mut().max_slices = 4;
    let wild_image = rig
        .kernel
        .compile_graft_unsafe(
            "wild-filter",
            "const r1, 0xC0000000\nconst r2, 0x41414141\nstorew r2, [r1+0]\nhalt r0",
        )
        .unwrap();
    let wild = rig
        .plane
        .install_filter(WILD, &wild_image, rig.app, rig.thread, &InstallOpts::default())
        .unwrap();
    let cycle = install(
        &rig,
        CYCLE,
        "cycle-filter",
        &format!("const r5, {}\nhalt r5", verdict_code::steer_to(CYCLE.0)),
    );
    let hoard = install(&rig, HOARD, "hoard-filter", "const r1, 65536\nlp: call $kalloc\njmp lp");
    for p in 0..8u16 {
        rig.plane.open_port(Port(60 + p), 1024);
    }

    let mut seen: HashSet<u64> = HashSet::new();
    let mut fresh: u64 = 0; // every plane.rx() this run makes
    let mut delivered: u64 = 0;

    // Phase A — the injected trap: arm NetFilterTrap so the doomed
    // filter's first batch trips a VM trap mid-run and the whole batch
    // falls back to the default path.
    {
        let fp = rig.kernel.engine.obs.fault().unwrap();
        fp.arm(FaultSite::NetFilterTrap, 1);
    }
    for i in 0..32u32 {
        rig.plane.rx(Packet::udp(i, 1, DOOMED, vec![0x42; 8]));
        fresh += 1;
    }
    delivered += pump_and_drain(&rig, &mut seen);
    assert!(doomed.borrow().is_dead(), "injected trap killed the doomed filter");
    assert!(rig.plane.fallback_active(DOOMED));

    // Phase B — the storm proper.
    let mut rng = SplitMix64::new(seed ^ 0x5EED_F00D);
    for i in 0..n_packets {
        let r = rng.below(100);
        let port = match r {
            0..=69 => Port(60 + rng.below(8) as u16),
            70..=81 => WELL,
            82..=85 => SPIN,
            86..=89 => WILD,
            90..=93 => CYCLE,
            94..=97 => HOARD,
            _ => DOOMED, // now fallback traffic
        };
        let src = rng.next_u64() as u32;
        let dst = rng.next_u64() as u32;
        let len = rng.below(32) as usize;
        let pkt = if rng.below(2) == 0 {
            Packet::udp(src, dst, port, vec![0xA5; len])
        } else {
            Packet::tcp(src, dst, port, vec![0x5A; len])
        };
        rig.plane.rx(pkt);
        fresh += 1;
        if i % 512 == 511 {
            delivered += pump_and_drain(&rig, &mut seen);
        }
    }
    delivered += pump_and_drain(&rig, &mut seen);

    // Phase C — a burst: flood one bulk ring past its high watermark
    // (and past capacity) with no pump in between, so backpressure
    // actually engages: watermark shedding first, hard overflow at the
    // top.
    for i in 0..1500u32 {
        rig.plane.rx(Packet::udp(i, 4, Port(60), vec![1; 4]));
        fresh += 1;
    }
    delivered += pump_and_drain(&rig, &mut seen);

    // Every hostile filter is dead; the well-behaved one survived.
    assert!(spin.borrow().is_dead(), "CPU hog aborted");
    assert!(wild.borrow().is_dead(), "wild store trapped");
    assert!(cycle.borrow().is_dead(), "steer cycle condemned");
    assert!(hoard.borrow().is_dead(), "heap hoarder hit its limit");
    assert!(!well.borrow().is_dead(), "the well-behaved filter survived the battery");
    for port in [DOOMED, SPIN, WILD, CYCLE, HOARD] {
        assert!(rig.plane.fallback_active(port), "port {} fell back to accept-all", port.0);
        assert_eq!(rig.plane.port_stats(port).unwrap().filter_live, Some(false));
    }
    assert!(!rig.plane.fallback_active(WELL));

    // Victim ports keep serving through the default filter (Rule 9).
    let before = rig.plane.port_stats(SPIN).unwrap().delivered;
    for i in 0..10u32 {
        rig.plane.rx(Packet::udp(i, 2, SPIN, vec![7; 4]));
        fresh += 1;
    }
    delivered += pump_and_drain(&rig, &mut seen);
    assert!(
        rig.plane.port_stats(SPIN).unwrap().delivered > before,
        "default path serves the spinner's port after its death"
    );

    // Repeated reinstall-and-abort of the spinner trips quarantine.
    let spin_image = rig.kernel.compile_graft("spin-filter", spin_src).unwrap();
    let mut quarantined = false;
    for _ in 0..4 {
        match rig.plane.install_filter(
            SPIN,
            &spin_image,
            rig.app,
            rig.thread,
            &InstallOpts::default(),
        ) {
            Ok(g) => {
                g.borrow_mut().max_slices = 4;
                for i in 0..8u32 {
                    rig.plane.rx(Packet::udp(i, 3, SPIN, vec![9; 4]));
                    fresh += 1;
                }
                delivered += pump_and_drain(&rig, &mut seen);
                assert!(g.borrow().is_dead(), "the reinstalled spinner dies again");
            }
            Err(InstallError::Quarantined { .. }) => {
                quarantined = true;
                break;
            }
            Err(e) => panic!("unexpected install error: {e:?}"),
        }
    }
    assert!(quarantined, "repeated spinner aborts must trip quarantine");

    // Rings are dry, and the books balance exactly.
    for port in rig.plane.open_ports() {
        assert_eq!(rig.plane.port_stats(port).unwrap().depth, 0, "ring {} drained", port.0);
    }
    let g = |c| rig.mp.get(c);
    assert_eq!(
        g(Counter::NetRxPackets) + g(Counter::NetRxSheds) + g(Counter::NetRxOverflows),
        fresh + g(Counter::NetSteerHops),
        "every admission attempt is a fresh packet or a steer re-entry"
    );
    assert_eq!(
        g(Counter::NetRxPackets),
        g(Counter::NetAccepts) + g(Counter::NetDrops) + g(Counter::NetSteers),
        "every admitted packet gets exactly one verdict"
    );
    assert_eq!(
        g(Counter::NetSteers),
        g(Counter::NetSteerHops) + g(Counter::NetLoopCuts),
        "every steer verdict is a re-entry or a loop cut"
    );
    assert_eq!(g(Counter::NetAccepts), delivered, "accepts equal deliveries");
    assert_eq!(delivered, seen.len() as u64);
    assert!(g(Counter::NetRxSheds) > 0, "watermark shedding engaged under load");
    assert!(g(Counter::NetRxOverflows) > 0, "injected overflows fired");
    assert!(g(Counter::NetLoopCuts) > 0, "the hop budget cut the steering cycle");
    assert!(g(Counter::GraftAborts) >= 4, "each trapping hostile aborted at least once");

    // Trace arithmetic: net events are tracked, and the category sums
    // still reconcile.
    let ts = rig.tp.stats();
    assert!(ts.net > 0);
    assert_eq!(ts.vm + ts.txn + ts.rm + ts.fs + ts.graft + ts.net, ts.total);

    StormTally { delivered, trace: rig.tp.serialize(), metrics: rig.mp.snapshot() }
}

/// The full battery, twice: surviving is asserted inside `run_storm`,
/// and the two same-seed runs must agree byte for byte on both planes.
#[test]
fn storm_survives_hostile_filters_and_replays_identically() {
    let seed = env_u64("PACKET_STORM_SEED", DEFAULT_SEED);
    let n = env_u64("PACKET_STORM_PACKETS", DEFAULT_PACKETS);
    let a = run_storm(seed, n);
    let b = run_storm(seed, n);
    assert!(a.delivered > n / 2, "the plane delivered the bulk of the storm");
    assert_eq!(a.delivered, b.delivered);
    assert_eq!(a.trace, b.trace, "same-seed replay: traces must be byte-identical");
    assert_eq!(a.metrics, b.metrics, "same-seed replay: metrics must be byte-identical");
}

// ---- Golden snapshot ----

fn golden_path(ext: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("packet_storm.{ext}"))
}

/// Compares `got` against the golden file, or rewrites it when
/// `UPDATE_GOLDENS=1`, mirroring the trace/metrics golden batteries.
fn check_golden(ext: &str, got: &str) {
    let path = golden_path(ext);
    if std::env::var("UPDATE_GOLDENS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with UPDATE_GOLDENS=1 cargo test --test packet_storm",
            path.display()
        )
    });
    if got != want {
        let mut diff = String::new();
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            if g != w {
                diff.push_str(&format!("line {}:\n  golden: {w}\n  got:    {g}\n", i + 1));
            }
        }
        let (gl, wl) = (got.lines().count(), want.lines().count());
        if gl != wl {
            diff.push_str(&format!("line counts differ: golden {wl}, got {gl}\n"));
        }
        panic!(
            "packet storm drifted from golden .{ext} — if intentional, rerun with UPDATE_GOLDENS=1\n{diff}"
        );
    }
}

/// A small fixed-size storm (seed 9, 600 packets — never env-tuned),
/// frozen on both planes. Any change to packet-path event ordering,
/// verdict accounting, or cycle charging shows up as a diff here.
#[test]
fn golden_packet_storm() {
    let tally = run_storm(9, 600);
    check_golden("trace", &tally.trace);
    check_golden("metrics", &tally.metrics);
}
