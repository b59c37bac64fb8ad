//! The one golden checker: every pinned output (traces, metrics,
//! profiles, timelines, alerts, the profdiff snapshot, the tables) goes
//! through [`check`], which compares `tests/goldens/<name>` exactly.
//! `UPDATE_GOLDENS=1` rewrites the golden. On a mismatch the stream is
//! written to `target/goldens/<name>` and the panic names the first
//! differing line and both line counts. A stream longer than
//! [`PIN_LINES`] lines is stored as `# fnv1a64=<hex> lines=<n>` (FNV-1a
//! 64 over its bytes) plus its first [`EXCERPT_LINES`] lines.

use std::path::Path;

/// Streams with more lines than this are stored as hash + excerpt.
pub const PIN_LINES: usize = 1_000;

/// Lines of a pinned stream kept readable after its header.
pub const EXCERPT_LINES: usize = 40;

const PIN_HEADER: &str = "# fnv1a64=";

/// Byte-serial FNV-1a 64: the hash in a pinned golden's header. Kept
/// apart from the journal's `checksum64` so pins survive any change to
/// the on-disk sum.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// Compares `got` with the golden `tests/goldens/<name>`, or rewrites
/// the golden when `UPDATE_GOLDENS=1`.
///
/// # Panics
///
/// On a missing golden, or on any difference.
pub fn check(name: &str, got: &str) {
    let update = std::env::var("UPDATE_GOLDENS").is_ok_and(|v| v == "1");
    let (golden, regen) = (root().join("tests/goldens"), root().join("target/goldens"));
    check_at(&golden.join(name), &regen.join(name), got, update);
}

/// The workspace root, two levels above this crate.
fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).expect("workspace root")
}

/// [`check`] with explicit paths and update switch.
fn check_at(golden: &Path, regen: &Path, got: &str, update: bool) {
    let stored = stored_form(got);
    if update {
        write(golden, &stored).unwrap_or_else(|e| panic!("{}: {e}", golden.display()));
        return;
    }
    let want = std::fs::read_to_string(golden).unwrap_or_else(|e| {
        panic!("missing golden {} ({e}); regenerate with UPDATE_GOLDENS=1", golden.display())
    });
    if want == stored {
        return;
    }
    let wrote = match write(regen, got) {
        Ok(()) => format!("regenerated stream: {}", regen.display()),
        Err(e) => format!("could not write {}: {e}", regen.display()),
    };
    panic!(
        "golden {} drifted\n{}\n{wrote}\nif the change is intended, rerun with UPDATE_GOLDENS=1",
        golden.display(),
        first_difference(&want, got)
    );
}

/// What the golden file holds for `stream`: the stream itself, or its
/// pinned form when it is longer than [`PIN_LINES`].
fn stored_form(stream: &str) -> String {
    let n = stream.lines().count();
    if n <= PIN_LINES {
        return stream.to_string();
    }
    let mut out = format!("{PIN_HEADER}{:016x} lines={n}\n", fnv1a64(stream.as_bytes()));
    for line in stream.lines().take(EXCERPT_LINES) {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Where `got` departs from the golden text `want`, plain or pinned.
fn first_difference(want: &str, got: &str) -> String {
    let (pin, body) = match want.strip_prefix(PIN_HEADER).and_then(|r| r.split_once('\n')) {
        Some((header, excerpt)) => (header.split_once(" lines="), excerpt),
        None => (None, want),
    };
    let want_lines = pin.map_or(want.lines().count().to_string(), |(_, n)| n.to_string());
    let (w, g): (Vec<&str>, Vec<&str>) = (body.lines().collect(), got.lines().collect());
    let at = w.iter().zip(&g).take_while(|(a, b)| a == b).count();
    let line = |v: &[&str]| v.get(at).copied().unwrap_or("<end of stream>").to_string();
    let head = if at < w.len() || (pin.is_none() && at < g.len()) {
        format!(
            "first difference at line {}:\n  golden: {}\n  got:    {}",
            at + 1,
            line(&w),
            line(&g)
        )
    } else if let Some((hash, _)) = pin {
        format!(
            "lines 1-{at} match the pinned excerpt; the stream differs after them \
             (fnv1a64 golden {hash}, got {:016x})",
            fnv1a64(got.as_bytes())
        )
    } else {
        "every line matches; the stored form differs (line endings or pinning)".into()
    };
    format!("{head}\nlines: golden {want_lines}, got {}", g.len())
}

fn write(path: &Path, text: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(path.parent().unwrap_or(Path::new(".")))?;
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A scratch directory of its own under the workspace `target/`.
    fn scratch(test: &str) -> PathBuf {
        let dir = root().join("target/golden-selftest").join(test);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn the_pin_hash_is_the_published_fnv1a_64() {
        for (input, want) in [
            (&b""[..], 0xcbf2_9ce4_8422_2325),
            (b"a", 0xaf63_dc4c_8601_ec8c),
            (b"foobar", 0x8594_4171_f739_67e8),
        ] {
            assert_eq!(fnv1a64(input), want);
        }
    }

    /// Runs [`check_at`] and returns its panic message, if any.
    fn run(golden: &Path, regen: &Path, got: &str) -> Option<String> {
        let (g, r, s) = (golden.to_path_buf(), regen.to_path_buf(), got.to_string());
        let caught = std::panic::catch_unwind(move || check_at(&g, &r, &s, false)).err()?;
        Some(caught.downcast_ref::<String>().cloned().unwrap_or_default())
    }

    fn numbered(n: usize) -> String {
        (1..=n).map(|i| format!("line {i}\n")).collect()
    }

    #[test]
    fn short_mismatch_names_the_first_differing_line_and_writes_the_stream() {
        let dir = scratch("short");
        let (golden, regen) = (dir.join("a.golden"), dir.join("regen/a.golden"));
        check_at(&golden, &regen, "one\ntwo\nthree\n", true);
        assert_eq!(run(&golden, &regen, "one\ntwo\nthree\n"), None);
        let got = "one\nTWO\nthree\nfour\n";
        let msg = run(&golden, &regen, got).expect("a changed line must fail");
        assert!(msg.contains("first difference at line 2:"), "{msg}");
        assert!(msg.contains("golden: two") && msg.contains("got:    TWO"), "{msg}");
        assert!(msg.contains("lines: golden 3, got 4"), "{msg}");
        assert!(msg.contains(&regen.display().to_string()), "{msg}");
        assert_eq!(std::fs::read_to_string(&regen).unwrap(), got, "regenerated stream");
        assert!(msg.lines().count() <= 8, "{msg}");
    }

    #[test]
    fn a_strict_prefix_names_the_first_missing_line() {
        let dir = scratch("prefix");
        let (golden, regen) = (dir.join("b.golden"), dir.join("regen/b.golden"));
        check_at(&golden, &regen, &numbered(5), true);
        let msg = run(&golden, &regen, &numbered(3)).expect("a truncated stream must fail");
        assert!(msg.contains("first difference at line 4:"), "{msg}");
        assert!(msg.contains("golden: line 4") && msg.contains("got:    <end of stream>"), "{msg}");
        assert!(msg.contains("lines: golden 5, got 3"), "{msg}");
    }

    #[test]
    fn a_long_stream_is_pinned_and_a_change_past_the_excerpt_fails_on_the_hash() {
        let dir = scratch("pinned");
        let (golden, regen) = (dir.join("c.golden"), dir.join("regen/c.golden"));
        let stream = numbered(PIN_LINES + 1);
        check_at(&golden, &regen, &stream, true);
        let hash = fnv1a64(stream.as_bytes());
        assert_eq!(
            std::fs::read_to_string(&golden).unwrap(),
            format!("# fnv1a64={hash:016x} lines=1001\n{}", numbered(EXCERPT_LINES))
        );
        assert_eq!(run(&golden, &regen, &stream), None, "the pinned form checks its own stream");

        let changed = stream.replacen("line 500\n", "line 50O\n", 1);
        let msg = run(&golden, &regen, &changed).expect("a change past the excerpt must fail");
        assert!(msg.contains("lines 1-40 match the pinned excerpt"), "{msg}");
        assert!(msg.contains(&format!("fnv1a64 golden {hash:016x}")), "{msg}");
        assert!(msg.contains("lines: golden 1001, got 1001"), "{msg}");
        assert_eq!(std::fs::read_to_string(&regen).unwrap(), changed, "full stream, not pinned");
    }
}
