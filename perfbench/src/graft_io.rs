//! `graft_io`: the VM/SFI-dominated path with every plane attached.
//!
//! Seeded random 8 KB reads of a 12 MB file — larger than the
//! 256-block buffer cache, so reads miss — under an
//! application-installed read-ahead graft that prefetches the next
//! posted offset (the Table 3 shape). Each read is then encrypted
//! through the xor stream graft (Table 6, the SFI worst case), and the
//! paper's 137 µs of virtual compute sits between ops. One op is one
//! read plus one encrypt.

use vino::core::kernel::KernelConfig;
use vino::core::{InstallOpts, Kernel};
use vino::rm::{Limits, ResourceKind};
use vino::sim::metrics::Counter;
use vino::sim::{Cycles, SplitMix64};
use vino::txn::LockClass;

use crate::harness::{host_ns, Fnv, Layer, Round, Tracer};
use crate::{attach_planes, fs_rows, fs_snap, time_remounts, LedgerSnap};

/// File size in 4 KB blocks: 12 MB.
const FILE_BLOCKS: u64 = 3072;
/// Bytes per read and per encrypt.
const IO: usize = 8192;
/// The virtual compute between reads ("137 us to sum a 4KB array").
const COMPUTE_US: u64 = 137;
/// The stream graft's xor key, per byte.
const KEY: u8 = 0x5A;

/// The read-ahead graft: the application posts (current, next) offsets
/// in the shared buffer; on a match the graft prefetches the next read.
const RA_GRAFT: &str = "
    const r1, 0
    call $lock
    call $shared_base
    mov r5, r0
    loadw r8, [r5+0]
    loadw r9, [r5+1028]
    bne r8, r9, out
    loadw r1, [r5+1032]
    const r2, 8192
    call $ra_submit
out:
    halt r0
";

/// The Table 6 xor stream graft: word-at-a-time load/xor/store.
const XOR_GRAFT: &str = "
    const r5, 0x5A5A5A5A
    add r3, r1, r3
loop:
    bgeu r1, r3, done
    loadw r7, [r1+0]
    xor r7, r7, r5
    storew r7, [r2+0]
    addi r1, r1, 4
    addi r2, r2, 4
    jmp loop
done:
    halt r0
";

/// One round of `reads` ops.
pub fn round(seed: u64, reads: u64, tr: &mut Tracer) -> Round {
    let mut r = Round::default();
    let mut rng = SplitMix64::new(seed ^ 0x6A2F_710D);
    let mut inputs = Fnv::default();
    let mut content = vec![0u8; (FILE_BLOCKS * 4096) as usize];
    for w in content.chunks_mut(8) {
        w.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    let blocks: Vec<u64> = (0..=reads).map(|_| rng.below(FILE_BLOCKS - 1)).collect();
    inputs.mix(content.iter().step_by(4096).fold(0, |a, &b| a.rotate_left(3) ^ b as u64));
    for &b in &blocks {
        inputs.mix(b);
    }

    let t0 = host_ns();
    let k = Kernel::boot_with(KernelConfig::default());
    let planes = attach_planes(&k, seed);
    let app = k.create_app(Limits::of(&[
        (ResourceKind::KernelHeap, 1 << 20),
        (ResourceKind::Memory, 1 << 24),
    ]));
    let thread = k.spawn_thread("graft-io");
    k.engine.register_lock(LockClass::SharedBuffer);
    let fd = {
        let mut fs = k.fs.borrow_mut();
        fs.create("gio.dat", FILE_BLOCKS * 4096).expect("the volume holds 12 MB");
        let fd = fs.open("gio.dat").expect("just created");
        for (i, chunk) in content.chunks(IO).enumerate() {
            fs.write(fd, (i * IO) as u64, chunk).expect("fault plane unarmed");
        }
        fd
    };
    let opts = InstallOpts::default();
    let ra_image = k.compile_graft("app-ra", RA_GRAFT).expect("assembles");
    let ra = tr
        .call(Layer::Install, || k.install_ra_graft(fd, &ra_image, app, thread, &opts))
        .expect("read-ahead graft installs");
    let xor_image = k.compile_graft("xor-crypt", XOR_GRAFT).expect("assembles");
    let mut stream = tr
        .call(Layer::Install, || k.install_stream_graft(&xor_image, app, thread, &opts))
        .expect("stream graft installs");
    r.setup_ns = host_ns() - t0;

    let fs0 = fs_snap(&k);
    let led0 = LedgerSnap::take(&planes);
    let txn0 = k.engine.txn.borrow().stats();
    let region0 = k.clock.now();
    let (mut virt, mut instrs) = (0u64, 0u64);
    for i in 0..reads as usize {
        let off = blocks[i] * 4096;
        let next = blocks[i + 1] * 4096;

        let op = tr.begin_op();
        let v0 = k.clock.now();
        tr.call(Layer::PostHint, || {
            let mut g = ra.borrow_mut();
            let mem = g.mem();
            mem.graft_write_u32(1028, std::hint::black_box(off) as u32);
            mem.graft_write_u32(1032, std::hint::black_box(next) as u32);
        });
        let data = tr.call(Layer::FsRead, || {
            std::hint::black_box(k.fs.borrow_mut().read(fd, std::hint::black_box(off), IO as u64))
        });
        let i0 = planes.metrics.get(Counter::VmInstrs);
        let cipher = match &data {
            Ok(d) => tr.call(Layer::Transform, || std::hint::black_box(stream.transform(d))),
            Err(_) => None,
        };
        instrs += planes.metrics.get(Counter::VmInstrs) - i0;
        let ns = tr.end_op(op);
        virt += k.clock.since(v0).get();
        r.op(ns, 1);
        k.clock.charge(Cycles::from_us(COMPUTE_US));

        let plain = &content[off as usize..off as usize + IO];
        match (&data, &cipher) {
            (Err(e), _) => r.fail(format!("read at {off} failed: {e:?}")),
            (Ok(d), _) if d.as_slice() != plain => {
                r.fail(format!("read at {off} returned wrong bytes"))
            }
            (_, None) => r.fail(format!("the stream graft died on the read at {off}")),
            (_, Some(c)) if c.iter().zip(plain).any(|(&c, &p)| c != p ^ KEY) => {
                r.fail(format!("ciphertext at {off} is not plaintext xor key"))
            }
            _ => {}
        }
    }
    r.ops = reads;
    r.inputs = inputs.get();
    let d = &mut r.det;
    d.insert("virt_us_per_op", Cycles(virt).as_us() / reads as f64);
    d.insert("count.transform_instrs", instrs as f64);
    fs_rows(&k, &fs0, reads, 0, k.clock.since(region0), d);
    LedgerSnap::take(&planes).rows_since(&led0, reads, d);
    let txn = k.engine.txn.borrow().stats();
    d.insert(
        "txn.abort_share",
        (txn.aborts - txn0.aborts) as f64 / (txn.begins - txn0.begins).max(1) as f64,
    );
    r.recover_ns = time_remounts(&k, 4, &mut r.det);
    r
}
