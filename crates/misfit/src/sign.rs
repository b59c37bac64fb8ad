//! Code signing of graft images.
//!
//! §3.3: "VINO must ensure that code loaded into the kernel has been
//! processed by MiSFIT. MiSFIT computes a cryptographic digital signature
//! of the graft and stores it with the compiled code. When VINO loads a
//! graft it recomputes the checksum and compares it with the saved copy.
//! If the two do not match the graft is not loaded."
//!
//! The trust model is a shared secret between the trusted MiSFIT tool
//! and the kernel (the paper points at Authenticode-style commercial
//! tooling; an HMAC keeps the reproduction self-contained while giving
//! the same property: only images produced by the keyed tool verify).

use std::fmt;

use vino_sim::fault::FaultSite;
use vino_sim::obs::Obs;
use vino_vm::encode::{decode, encode, DecodeError};
use vino_vm::isa::Program;

use crate::instrument::{instrument, InstrumentError, InstrumentStats};
use crate::sha256::{ct_eq, hmac, DIGEST_LEN};

/// The shared signing secret held by the MiSFIT tool and the kernel.
#[derive(Clone)]
pub struct SigningKey([u8; 32]);

impl SigningKey {
    /// Builds a key from raw bytes.
    pub fn from_bytes(bytes: [u8; 32]) -> SigningKey {
        SigningKey(bytes)
    }

    /// Derives a key from a passphrase (demo/test convenience).
    pub fn from_passphrase(phrase: &str) -> SigningKey {
        SigningKey(crate::sha256::digest(phrase.as_bytes()))
    }

    fn sign(&self, data: &[u8]) -> [u8; DIGEST_LEN] {
        hmac(&self.0, data)
    }
}

impl fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never leak key material through Debug output.
        write!(f, "SigningKey(..)")
    }
}

/// A compiled, instrumented, signed graft — what an application hands to
/// the kernel's `graft_install` call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedImage {
    /// Encoded instrumented program bytes ([`vino_vm::encode`] format).
    pub bytes: Vec<u8>,
    /// HMAC-SHA-256 of `bytes` under the tool's signing key.
    pub signature: [u8; DIGEST_LEN],
}

/// Verification failures at load time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// Signature mismatch: the image was not produced by the trusted
    /// tool, or was modified afterwards. The graft is not loaded.
    BadSignature,
    /// The signature verified but the bytes do not decode — possible
    /// only if the tool itself emitted garbage.
    Undecodable(DecodeError),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::BadSignature => write!(f, "graft signature verification failed"),
            VerifyError::Undecodable(e) => write!(f, "signed image does not decode: {e}"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// The MiSFIT tool: instruments, encodes and signs graft programs.
#[derive(Debug, Clone)]
pub struct MisfitTool {
    key: SigningKey,
    obs: Obs,
}

impl MisfitTool {
    /// Creates a tool instance holding the signing key.
    pub fn new(key: SigningKey) -> MisfitTool {
        MisfitTool::with_obs(key, Obs::default())
    }

    /// A tool observed through `obs`: with a fault plane attached, each
    /// [`verify_and_decode`](Self::verify_and_decode) call visits
    /// [`FaultSite::ImageCorrupt`]; when it fires the image is rejected
    /// as if corrupted in transit.
    pub fn with_obs(key: SigningKey, obs: Obs) -> MisfitTool {
        MisfitTool { key, obs }
    }

    /// The observation handle the tool consults.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The full MiSFIT pipeline: SFI-instrument `prog`, encode it, and
    /// sign the encoded bytes. This is what "compiled with the correct
    /// compiler" (§2.3) means in this reproduction.
    pub fn process(
        &self,
        prog: &Program,
    ) -> Result<(SignedImage, InstrumentStats), InstrumentError> {
        let (instrumented, stats) = instrument(prog)?;
        Ok((self.seal(&instrumented), stats))
    }

    /// Signs an already-instrumented program without re-instrumenting.
    /// Used by the unsafe-path benchmarks, which deliberately sign raw
    /// programs to isolate SFI overhead from signature checking.
    pub fn seal(&self, prog: &Program) -> SignedImage {
        let bytes = encode(prog);
        let signature = self.key.sign(&bytes);
        SignedImage { bytes, signature }
    }

    /// Kernel-side verification: recompute the checksum, compare, and
    /// decode. Exactly the §3.3 load sequence.
    pub fn verify_and_decode(&self, image: &SignedImage) -> Result<Program, VerifyError> {
        if self.obs.fire(FaultSite::ImageCorrupt) {
            // Injected corruption: the checksum comparison fails exactly
            // as it would for a genuinely damaged image.
            return Err(VerifyError::BadSignature);
        }
        let expect = self.key.sign(&image.bytes);
        if !ct_eq(&expect, &image.signature) {
            return Err(VerifyError::BadSignature);
        }
        decode(&image.bytes).map_err(VerifyError::Undecodable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vino_vm::isa::{Instr, Reg};

    fn tool() -> MisfitTool {
        MisfitTool::new(SigningKey::from_passphrase("vino-test-key"))
    }

    fn sample() -> Program {
        Program::new(
            "sample",
            vec![
                Instr::Const { d: Reg(1), imm: 5 },
                Instr::LoadW { d: Reg(2), addr: Reg(1), off: 0 },
                Instr::Halt { result: Reg(2) },
            ],
        )
    }

    #[test]
    fn process_verify_round_trip() {
        let t = tool();
        let (img, stats) = t.process(&sample()).unwrap();
        assert_eq!(stats.mem_accesses, 1);
        let prog = t.verify_and_decode(&img).unwrap();
        assert_eq!(prog.name, "sample");
        // The decoded program is the *instrumented* one.
        assert!(prog.instrs.iter().any(|i| matches!(i, Instr::Clamp { .. })));
    }

    #[test]
    fn tampered_code_rejected() {
        let t = tool();
        let (mut img, _) = t.process(&sample()).unwrap();
        // Flip one bit anywhere in the code: signature must fail.
        let n = img.bytes.len();
        img.bytes[n / 2] ^= 0x01;
        assert_eq!(t.verify_and_decode(&img), Err(VerifyError::BadSignature));
    }

    #[test]
    fn forged_signature_rejected() {
        let t = tool();
        let (mut img, _) = t.process(&sample()).unwrap();
        img.signature[0] ^= 0xFF;
        assert_eq!(t.verify_and_decode(&img), Err(VerifyError::BadSignature));
    }

    #[test]
    fn unprocessed_code_rejected() {
        // An attacker who bypasses MiSFIT and signs with the wrong key.
        let attacker = MisfitTool::new(SigningKey::from_passphrase("attacker"));
        let img = attacker.seal(&sample());
        assert_eq!(tool().verify_and_decode(&img), Err(VerifyError::BadSignature));
    }

    #[test]
    fn injected_corruption_rejects_then_passes() {
        use vino_sim::fault::{FaultPlane, FaultSite};
        let t = tool();
        let (img, _) = t.process(&sample()).unwrap();
        let plane = FaultPlane::seeded(0);
        plane.arm(FaultSite::ImageCorrupt, 1);
        t.obs().attach_fault(plane).unwrap();
        assert_eq!(t.verify_and_decode(&img), Err(VerifyError::BadSignature));
        assert!(t.verify_and_decode(&img).is_ok(), "one-shot spent; image is fine");
    }

    #[test]
    fn key_debug_does_not_leak() {
        let k = SigningKey::from_passphrase("secret");
        assert_eq!(format!("{k:?}"), "SigningKey(..)");
    }

    #[test]
    fn seal_skips_instrumentation() {
        let t = tool();
        let img = t.seal(&sample());
        let prog = t.verify_and_decode(&img).unwrap();
        assert!(!prog.instrs.iter().any(|i| matches!(i, Instr::Clamp { .. })));
    }

    #[test]
    fn distinct_keys_distinct_signatures() {
        let a = MisfitTool::new(SigningKey::from_passphrase("a")).seal(&sample());
        let b = MisfitTool::new(SigningKey::from_passphrase("b")).seal(&sample());
        assert_eq!(a.bytes, b.bytes);
        assert_ne!(a.signature, b.signature);
    }
}
