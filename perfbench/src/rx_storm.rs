//! `rx_storm`: the per-packet fast path with no planes attached.
//!
//! Seeded UDP/TCP packets arrive in bursts of seeded length at a
//! `PacketPlane` with the default batch of 32. Each burst is offered
//! with `rx`, then `pump`ed and drained; one op is one offered packet,
//! and its latency is its burst's host time. Most traffic lands on
//! unfiltered bulk ports; the rest crosses three filters — a
//! well-behaved drop-odd filter, a steering filter, and a spinner that
//! dies in its first batch so its port falls back to the default path.
//! One burst in eight is large, and the largest of those push their
//! dominant bulk port past the shed watermark.

use std::rc::Rc;

use vino::core::{InstallOpts, Kernel};
use vino::dev::Port;
use vino::net::{verdict_code, Admit, Packet, PacketPlane};
use vino::rm::{Limits, ResourceKind};
use vino::sim::{Cycles, SplitMix64};

use crate::harness::{host_ns, Fnv, Layer, Round, Tracer};
use crate::{attach_planes, time_remounts, LedgerSnap, Planes};

/// The well-behaved filter's port: drops odd source addresses.
const WELL: Port = Port(10);
/// The steering filter's port: steers everything to [`STEER_TO`].
const STEER: Port = Port(20);
/// The spinner's port: default path after its first batch.
const SPIN: Port = Port(30);
/// Where the steering filter sends its packets.
const STEER_TO: Port = Port(60);
/// First of the eight unfiltered bulk ports.
const BULK0: u16 = 60;
/// Ring capacity of every port (watermarks at 3/4 and 1/2).
const RING_CAP: usize = 1024;

/// Every open port, in the plane's processing order.
fn ports() -> Vec<Port> {
    let mut v = vec![WELL, STEER, SPIN];
    v.extend((0..8).map(|i| Port(BULK0 + i)));
    v
}

struct Rig {
    k: Rc<Kernel>,
    plane: Rc<PacketPlane>,
    planes: Option<Planes>,
}

fn setup(seed: u64, planes_on: bool, tr: &mut Tracer) -> Rig {
    let k = Kernel::boot();
    let planes = planes_on.then(|| attach_planes(&k, seed));
    let app = k.create_app(Limits::of(&[
        (ResourceKind::KernelHeap, 1 << 20),
        (ResourceKind::Memory, 1 << 24),
    ]));
    let thread = k.spawn_thread("rx-storm");
    let plane = PacketPlane::new(Rc::clone(&k));
    for p in ports() {
        plane.open_port(p, RING_CAP);
    }
    let filters = [
        (
            WELL,
            "well-drop-odd",
            "andi r5, r3, 1\nbne r5, r0, t\nhalt r0\nt: const r5, 1\nhalt r5".to_string(),
        ),
        (STEER, "steer-bulk", format!("const r5, {}\nhalt r5", verdict_code::steer_to(STEER_TO.0))),
        (SPIN, "spinner", "spin: jmp spin".to_string()),
    ];
    for (port, name, src) in filters {
        let image = k.compile_graft(name, &src).expect("filter source assembles");
        let g = tr
            .call(Layer::Install, || {
                plane.install_filter(port, &image, app, thread, &InstallOpts::default())
            })
            .expect("a fresh kernel installs the filter zoo");
        if port == SPIN {
            // Two CPU slices: the spinner dies inside its first batch.
            g.borrow_mut().max_slices = 2;
        }
    }
    Rig { k, plane, planes }
}

/// Draws one burst: its packets, and for each whether the drop-odd
/// filter must drop it. The generator state carries over from burst to
/// burst, so the whole round is a pure function of the seed.
fn draw_burst(rng: &mut SplitMix64, max: u64, inputs: &mut Fnv) -> (Vec<Packet>, Vec<bool>) {
    let len = if rng.chance(1, 8) { rng.range(1100, 1800) } else { rng.range(32, 600) };
    let len = len.min(max) as usize;
    let dominant = Port(BULK0 + rng.below(8) as u16);
    let mut pkts = Vec::with_capacity(len);
    let mut odd = Vec::with_capacity(len);
    for _ in 0..len {
        let port = match rng.below(100) {
            0..=59 => dominant,
            60..=74 => Port(BULK0 + rng.below(8) as u16),
            75..=86 => WELL,
            87..=94 => STEER,
            _ => SPIN,
        };
        let src = rng.next_u64() as u32;
        let dst = rng.next_u64() as u32;
        let plen = rng.below(32) as usize;
        let udp = rng.chance(1, 2);
        inputs.mix(
            ((port.0 as u64) << 48) ^ ((src as u64) << 16) ^ ((plen as u64) << 1) ^ udp as u64,
        );
        inputs.mix(dst as u64);
        let payload = vec![(src as u8) ^ 0xA5; plen];
        pkts.push(if udp {
            Packet::udp(src, dst, port, payload)
        } else {
            Packet::tcp(src, dst, port, payload)
        });
        odd.push(port == WELL && src % 2 == 1);
    }
    (pkts, odd)
}

/// Totals over one round, from the plane's own summaries.
#[derive(Default)]
struct Totals {
    refused: u64,
    filtered: u64,
    defaulted: u64,
    batches: u64,
    depth_max: u64,
    virt: u64,
}

/// One round of `packets` offered packets. With `planes_on`, all five
/// planes are attached (the observability-overhead pass); the virtual
/// results must not change.
pub fn round(seed: u64, packets: u64, planes_on: bool, tr: &mut Tracer) -> Round {
    let mut r = Round::default();
    let t0 = host_ns();
    let rig = setup(seed, planes_on, tr);
    r.setup_ns = host_ns() - t0;
    let ports = ports();
    let well_idx = ports.iter().position(|&p| p == WELL).expect("listed");
    let snap0 = rig.planes.as_ref().map(LedgerSnap::take);
    let mut prev: Vec<_> = ports.iter().map(|&p| rig.plane.port_stats(p).expect("open")).collect();
    let mut rng = SplitMix64::new(seed ^ 0x5EED_F00D);
    let mut inputs = Fnv::default();
    let mut t = Totals::default();
    let mut offered = 0;
    while offered < packets {
        let (burst, odd) = draw_burst(&mut rng, packets - offered, &mut inputs);
        let n = burst.len() as u64;
        offered += n;

        let op = tr.begin_op();
        let v0 = rig.k.clock.now();
        let (admitted, well_odd_admitted) = tr.call(Layer::NetRx, || {
            let (mut admitted, mut well_odd) = (0u64, 0u64);
            for (pkt, &odd) in burst.into_iter().zip(&odd) {
                if std::hint::black_box(rig.plane.rx(pkt)) == Admit::Admitted {
                    admitted += 1;
                    well_odd += odd as u64;
                }
            }
            (admitted, well_odd)
        });
        let sum = tr.call(Layer::NetPump, || std::hint::black_box(rig.plane.pump()));
        let delivered: Vec<Vec<Packet>> = tr.call(Layer::NetDrain, || {
            ports.iter().map(|&p| std::hint::black_box(rig.plane.drain_delivered(p))).collect()
        });
        let ns = tr.end_op(op);
        t.virt += rig.k.clock.since(v0).get();
        r.op(ns, n);

        // Output checks: packet conservation, filter verdicts, and no
        // packet delivered twice.
        let now: Vec<_> = ports.iter().map(|&p| rig.plane.port_stats(p).expect("open")).collect();
        let mut refused_total = 0;
        for (a, b) in now.iter().zip(&prev) {
            refused_total += (a.shed + a.overflowed) - (b.shed + b.overflowed);
            t.depth_max = t.depth_max.max(a.admitted - b.admitted);
        }
        prev = now;
        let refused_fresh = n - admitted;
        let reentries = sum.steered - sum.loop_cuts;
        let reentry_refused = refused_total.saturating_sub(refused_fresh);
        let n_delivered: u64 = delivered.iter().map(|v| v.len() as u64).sum();
        if sum.accepted + sum.dropped + sum.steered != admitted + reentries - reentry_refused {
            r.fail(format!("verdicts do not cover admissions: {sum:?}, admitted {admitted}"));
        }
        if n_delivered != sum.accepted {
            r.fail(format!("{n_delivered} packets delivered, {} accepted", sum.accepted));
        }
        if sum.dropped != well_odd_admitted {
            r.fail(format!("{} drops, {well_odd_admitted} odd sources on {}", sum.dropped, WELL.0));
        }
        if delivered[well_idx].iter().any(|p| p.src % 2 == 1) {
            r.fail("the drop-odd filter delivered an odd source".to_string());
        }
        let mut ids: Vec<u64> = delivered.iter().flatten().map(|p| p.id).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() as u64 != n_delivered {
            r.fail("a packet was delivered twice".to_string());
        }
        let settled = n_delivered + sum.dropped + refused_fresh + reentry_refused + sum.loop_cuts;
        if settled != n {
            r.fail(format!(
                "{} of {n} packets lost by the conservation check",
                n.abs_diff(settled)
            ));
        }
        t.refused += refused_fresh + reentry_refused;
        t.filtered += sum.filtered;
        t.defaulted += sum.defaulted;
        t.batches += sum.batches;
    }
    for &p in &ports {
        if rig.plane.port_stats(p).expect("open").depth != 0 {
            r.fail(format!("ring {} not drained", p.0));
        }
    }
    if !rig.plane.fallback_active(SPIN) || rig.plane.fallback_active(WELL) {
        r.fail("the spinner must fall back and the well-behaved filter survive".to_string());
    }
    r.ops = offered;
    r.refused = t.refused;
    r.inputs = inputs.get();
    r.recover_ns = time_remounts(&rig.k, 8, &mut r.det);

    let txn = rig.k.engine.txn.borrow().stats();
    let d = &mut r.det;
    d.insert("virt_us_per_op", Cycles(t.virt).as_us() / offered as f64);
    d.insert("net.shed_share", t.refused as f64 / offered as f64);
    d.insert("net.pkts_per_dispatch", t.filtered as f64 / t.batches.max(1) as f64);
    d.insert("net.fallback_share", t.defaulted as f64 / (t.filtered + t.defaulted) as f64);
    d.insert("net.ring_depth_max", t.depth_max as f64);
    d.insert("txn.abort_share", txn.aborts as f64 / txn.begins.max(1) as f64);
    // Host-row denominators: packets processed by pump (fresh and
    // steered re-entries), and calls per round.
    d.insert("count.processed", (t.filtered + t.defaulted) as f64);
    d.insert("count.ops", offered as f64);
    if let (Some(planes), Some(s0)) = (&rig.planes, snap0) {
        LedgerSnap::take(planes).rows_since(&s0, offered, d);
    }
    r
}
