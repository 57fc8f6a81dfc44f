//! Model checkpointing: save / restore trained wavefunctions.
//!
//! A deliberately tiny self-describing binary format (magic + version +
//! model kind + precision tag + shape + little-endian parameters) so
//! the crate needs no serialisation-format dependency.  Checkpoints are
//! portable across platforms (explicit endianness) and validated on
//! load (magic, version, kind, precision, shape, length).  Loading is
//! panic-free: truncated, corrupted or adversarially-shaped files come
//! back as `InvalidData`/`UnexpectedEof` errors, and every allocation
//! is bounded by validated shape arithmetic *before* it happens — a
//! serve `Reload` of a bad file answers an error frame instead of
//! taking the server down.
//!
//! ## Versions
//!
//! * **v1** — `magic | version | kind | n | h | count | f64 params`.
//!   Still accepted on load (treated as f64 storage, depth 1).
//! * **v2** — inserts one precision byte ([`Precision::tag`]) between
//!   the kind tag and the shape: `0` = f64 storage (8-byte params),
//!   `1` = f32 storage (4-byte params, widened to f64 on load).
//!   Unknown tags are rejected with `InvalidData`.
//! * **v3** — deep stacks: the single hidden width becomes a layer
//!   list, `… | n | L | h₁ … h_L | count | params`.  Saves only use v3
//!   when `L > 1`: a depth-1 model keeps writing v2, byte-identical to
//!   the previous release, and v1/v2 files load as depth-1 stacks.
//!
//! [`Checkpoint::save`] writes f64 storage;
//! [`Checkpoint::save_with_precision`] selects the storage width (an
//! f32 checkpoint of a MADE at `n = 65536, h = 256` is ~134 MB instead
//! of ~268 MB).  Loading always materialises f64 parameters (models
//! train and serve from the same struct); the checkpoint's *storage*
//! precision is surfaced by [`load_any`] so the serving CLI can default
//! its execution precision to match.
//!
//! ```no_run
//! use vqmc_nn::{checkpoint::Checkpoint, Made};
//! let model = Made::with_hidden(20, &[45, 30], 1);
//! model.save("made.ckpt").unwrap();
//! let restored = Made::load("made.ckpt").unwrap();
//! ```

use std::io::{self, Read, Write};
use std::path::Path;

use vqmc_tensor::{Precision, Vector};

use crate::{Made, Rbm, WaveFunction};

const MAGIC: &[u8; 4] = b"VQMC";
/// Newest version the loader accepts; the writer emits v2 for depth-1
/// models (byte compatibility) and v3 for deep stacks.
const VERSION: u32 = 3;
/// Oldest version still accepted on load.
const MIN_VERSION: u32 = 1;

/// Plausibility bounds enforced *before* any shape-derived allocation:
/// a malformed header cannot make the loader construct a huge model or
/// parameter buffer.
const MAX_SPINS: usize = 1 << 24;
const MAX_HIDDEN: usize = 1 << 24;
const MAX_PARAM_COUNT: usize = 1 << 28;

/// A wavefunction that can be persisted and restored.
pub trait Checkpoint: WaveFunction + Sized {
    /// Kind tag written into the file (guards against loading an RBM
    /// checkpoint into a MADE, etc.).
    const KIND: &'static str;

    /// Hidden widths, input to output (single-layer models report one).
    fn hidden_layers(&self) -> Vec<usize>;

    /// The parameter count a model of this shape would have, with
    /// checked arithmetic — `None` on overflow.  Called on *untrusted*
    /// header values before the model is constructed, so it must not
    /// allocate proportionally to the shape.
    fn param_count(n: usize, hidden: &[usize]) -> Option<usize>;

    /// Constructs an uninitialised model of the given shape; its
    /// parameters are immediately overwritten by the loader.  Errors if
    /// the kind does not support the shape (e.g. a multi-layer hidden
    /// list for a single-layer architecture).
    fn with_shape(n: usize, hidden: &[usize]) -> io::Result<Self>;

    /// Writes the checkpoint (f64 parameter storage).
    fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        self.save_with_precision(path, Precision::F64)
    }

    /// Writes the checkpoint with the given parameter storage width.
    /// `F32` narrows each parameter once at save time (half the file
    /// size); loading widens back, so a save→load round trip through
    /// f32 costs one rounding per parameter.
    fn save_with_precision(&self, path: impl AsRef<Path>, precision: Precision) -> io::Result<()> {
        let hidden = self.hidden_layers();
        let version = if hidden.len() == 1 { 2u32 } else { 3u32 };
        let mut f = std::fs::File::create(path)?;
        f.write_all(MAGIC)?;
        f.write_all(&version.to_le_bytes())?;
        let kind = Self::KIND.as_bytes();
        f.write_all(&(kind.len() as u32).to_le_bytes())?;
        f.write_all(kind)?;
        f.write_all(&[precision.tag()])?;
        f.write_all(&(self.num_spins() as u64).to_le_bytes())?;
        match version {
            2 => f.write_all(&(hidden[0] as u64).to_le_bytes())?,
            _ => {
                f.write_all(&(hidden.len() as u64).to_le_bytes())?;
                for &h in &hidden {
                    f.write_all(&(h as u64).to_le_bytes())?;
                }
            }
        }
        let params = self.params();
        f.write_all(&(params.len() as u64).to_le_bytes())?;
        match precision {
            Precision::F64 => {
                for v in params.iter() {
                    f.write_all(&v.to_le_bytes())?;
                }
            }
            Precision::F32 => {
                for v in params.iter() {
                    f.write_all(&(*v as f32).to_le_bytes())?;
                }
            }
        }
        Ok(())
    }

    /// Reads a checkpoint, validating the header.
    fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let mut f = std::fs::File::open(path)?;
        let header = Header::read(&mut f)?;
        if header.kind != Self::KIND {
            return Err(bad(&format!(
                "checkpoint holds a {:?} model, expected {:?}",
                header.kind,
                Self::KIND
            )));
        }
        load_body::<Self>(&mut f, &header)
    }
}

/// The parsed checkpoint header (everything before the parameter block).
struct Header {
    kind: String,
    /// Parameter *storage* width in the file (v1 files are f64).
    precision: Precision,
    n: usize,
    /// Hidden widths, input to output (v1/v2 files carry exactly one).
    hidden: Vec<usize>,
    count: usize,
}

impl Header {
    fn read(f: &mut impl Read) -> io::Result<Header> {
        let mut magic = [0u8; 4];
        f.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(bad("not a vqmc checkpoint (bad magic)"));
        }
        let version = read_u32(f)?;
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(bad(&format!("unsupported checkpoint version {version}")));
        }
        let kind_len = read_u32(f)? as usize;
        if kind_len > 64 {
            return Err(bad("implausible kind-tag length"));
        }
        let mut kind = vec![0u8; kind_len];
        f.read_exact(&mut kind)?;
        let kind = String::from_utf8(kind).map_err(|_| bad("kind tag is not UTF-8"))?;
        // v1 has no precision byte: storage is always f64.
        let precision = if version >= 2 {
            let mut tag = [0u8; 1];
            f.read_exact(&mut tag)?;
            Precision::from_tag(tag[0])
                .ok_or_else(|| bad(&format!("unknown precision tag {}", tag[0])))?
        } else {
            Precision::F64
        };
        let n = read_u64(f)? as usize;
        if n == 0 || n > MAX_SPINS {
            return Err(bad(&format!("implausible spin count {n}")));
        }
        // v1/v2 carry one hidden width; v3 a layer count + list.
        let hidden = if version >= 3 {
            let layers = read_u64(f)? as usize;
            if layers == 0 || layers >= crate::MAX_LAYERS {
                return Err(bad(&format!("implausible hidden-layer count {layers}")));
            }
            let mut hidden = Vec::with_capacity(layers);
            for _ in 0..layers {
                hidden.push(read_hidden(f)?);
            }
            hidden
        } else {
            vec![read_hidden(f)?]
        };
        let count = read_u64(f)? as usize;
        if count > MAX_PARAM_COUNT {
            return Err(bad(&format!("implausible parameter count {count}")));
        }
        Ok(Header {
            kind,
            precision,
            n,
            hidden,
            count,
        })
    }
}

fn read_hidden(f: &mut impl Read) -> io::Result<usize> {
    let h = read_u64(f)? as usize;
    if h == 0 || h > MAX_HIDDEN {
        return Err(bad(&format!("implausible hidden width {h}")));
    }
    Ok(h)
}

/// Reads the parameter block that follows a validated [`Header`],
/// widening f32 storage to the in-memory f64 parameters.
///
/// The declared count is checked against the shape's expected parameter
/// count (checked arithmetic, no allocation) *before* the model or the
/// read buffer is built, so a malformed header cannot trigger an
/// oversized allocation, and every byte-level conversion is fallible
/// rather than panicking.
fn load_body<M: Checkpoint>(f: &mut impl Read, header: &Header) -> io::Result<M> {
    let (n, count) = (header.n, header.count);
    let hidden = &header.hidden;
    let expected = M::param_count(n, hidden)
        .ok_or_else(|| bad(&format!("parameter count overflows for shape ({n},{hidden:?})")))?;
    if count != expected {
        return Err(bad(&format!(
            "parameter count mismatch: file has {count}, shape ({n},{hidden:?}) wants {expected}"
        )));
    }
    if expected > MAX_PARAM_COUNT {
        return Err(bad(&format!("implausible parameter count {expected}")));
    }
    let width = match header.precision {
        Precision::F64 => 8,
        Precision::F32 => 4,
    };
    let mut buf = vec![0u8; count * width];
    f.read_exact(&mut buf)?;
    let mut vals = Vec::with_capacity(count);
    match header.precision {
        Precision::F64 => {
            for c in buf.chunks_exact(8) {
                let arr: [u8; 8] =
                    c.try_into().map_err(|_| bad("malformed parameter chunk"))?;
                vals.push(f64::from_le_bytes(arr));
            }
        }
        Precision::F32 => {
            for c in buf.chunks_exact(4) {
                let arr: [u8; 4] =
                    c.try_into().map_err(|_| bad("malformed parameter chunk"))?;
                vals.push(f32::from_le_bytes(arr) as f64);
            }
        }
    }
    if vals.len() != count {
        return Err(bad("parameter block does not match declared count"));
    }
    let params = Vector(vals);
    if !params.all_finite() {
        return Err(bad("checkpoint contains non-finite parameters"));
    }
    let mut model = M::with_shape(n, hidden)?;
    model.set_params(&params);
    Ok(model)
}

/// A checkpointed model of any supported kind, resolved from the file's
/// own kind tag — the load hook servers and CLI tools use when the
/// model architecture is not known ahead of time.
#[derive(Debug)]
pub enum AnyModel {
    /// A MADE autoregressive wavefunction.
    Made(Made),
    /// An RBM wavefunction.
    Rbm(Rbm),
}

impl AnyModel {
    /// The kind tag of the wrapped model.
    pub fn kind(&self) -> &'static str {
        match self {
            AnyModel::Made(_) => Made::KIND,
            AnyModel::Rbm(_) => Rbm::KIND,
        }
    }

    /// The wrapped model as a [`WaveFunction`] trait object.
    pub fn as_wavefunction(&self) -> &dyn WaveFunction {
        match self {
            AnyModel::Made(m) => m,
            AnyModel::Rbm(m) => m,
        }
    }

    /// The wrapped model as a
    /// [`BatchedSampling`](crate::sampling::BatchedSampling) trait
    /// object — the unified sampling surface, so callers never match on
    /// the architecture to draw configurations.
    pub fn as_batched_sampling(&self) -> &dyn crate::sampling::BatchedSampling {
        match self {
            AnyModel::Made(m) => m,
            AnyModel::Rbm(m) => m,
        }
    }

    /// Number of spins of the wrapped model.
    pub fn num_spins(&self) -> usize {
        self.as_wavefunction().num_spins()
    }
}

/// Loads a checkpoint of *any* supported kind, dispatching on the kind
/// tag in the file header (single header read — no try-each-kind
/// guessing, and error messages name the actual problem).  Also returns
/// the file's parameter *storage* precision, so serving callers can
/// default their execution precision to match the checkpoint.
pub fn load_any(path: impl AsRef<Path>) -> io::Result<(AnyModel, Precision)> {
    let mut f = std::fs::File::open(path)?;
    let header = Header::read(&mut f)?;
    let model = match header.kind.as_str() {
        "made" => AnyModel::Made(load_body(&mut f, &header)?),
        "rbm" => AnyModel::Rbm(load_body(&mut f, &header)?),
        other => return Err(bad(&format!("unknown model kind {other:?} in checkpoint"))),
    };
    Ok((model, header.precision))
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn read_u32(f: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    f.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(f: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    f.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Checked `Σ_l out_l·(in_l + 1)` over the dimension chain
/// `n → hidden… → n` — the MADE stack's parameter count.
fn stack_param_count(n: usize, hidden: &[usize]) -> Option<usize> {
    let mut total = 0usize;
    let mut in_dim = n;
    for &h in hidden {
        total = total.checked_add(h.checked_mul(in_dim.checked_add(1)?)?)?;
        in_dim = h;
    }
    total.checked_add(n.checked_mul(in_dim.checked_add(1)?)?)
}

fn require_single_layer(kind: &str, hidden: &[usize]) -> io::Result<usize> {
    match hidden {
        [h] => Ok(*h),
        _ => Err(bad(&format!(
            "{kind} checkpoints are single-layer, file declares {} hidden layers",
            hidden.len()
        ))),
    }
}

impl Checkpoint for Made {
    const KIND: &'static str = "made";
    fn hidden_layers(&self) -> Vec<usize> {
        self.hidden_sizes().to_vec()
    }
    fn param_count(n: usize, hidden: &[usize]) -> Option<usize> {
        stack_param_count(n, hidden)
    }
    fn with_shape(n: usize, hidden: &[usize]) -> io::Result<Self> {
        if hidden.len() >= crate::MAX_LAYERS {
            return Err(bad(&format!(
                "made checkpoint declares {} hidden layers, max {}",
                hidden.len(),
                crate::MAX_LAYERS - 1
            )));
        }
        Ok(Made::with_hidden(n, hidden, 0))
    }
}

impl Checkpoint for Rbm {
    const KIND: &'static str = "rbm";
    fn hidden_layers(&self) -> Vec<usize> {
        vec![self.hidden_size()]
    }
    fn param_count(n: usize, hidden: &[usize]) -> Option<usize> {
        let h = *hidden.first()?;
        if hidden.len() != 1 {
            return None;
        }
        // h·n + h + n + 1
        h.checked_mul(n)?
            .checked_add(h)?
            .checked_add(n)?
            .checked_add(1)
    }
    fn with_shape(n: usize, hidden: &[usize]) -> io::Result<Self> {
        Ok(Rbm::new(n, require_single_layer("rbm", hidden)?, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqmc_tensor::batch::enumerate_configs;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("vqmc-ckpt-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn made_round_trip_preserves_amplitudes() {
        let path = tmp("made");
        let model = Made::new(6, 9, 17);
        model.save(&path).unwrap();
        let restored = Made::load(&path).unwrap();
        let batch = enumerate_configs(6);
        let a = model.log_psi(&batch);
        let b = restored.log_psi(&batch);
        for s in 0..batch.batch_size() {
            assert_eq!(a[s], b[s], "sample {s}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn depth1_save_bytes_unchanged_from_v2() {
        // Hand-assemble the exact v2 byte stream the previous release
        // wrote and require the new writer to reproduce it bit for bit.
        let path = tmp("v2-bytes");
        let model = Made::new(4, 6, 11);
        model.save(&path).unwrap();
        let written = std::fs::read(&path).unwrap();
        let mut expect = Vec::new();
        expect.extend_from_slice(b"VQMC");
        expect.extend_from_slice(&2u32.to_le_bytes());
        expect.extend_from_slice(&4u32.to_le_bytes());
        expect.extend_from_slice(b"made");
        expect.push(Precision::F64.tag());
        expect.extend_from_slice(&4u64.to_le_bytes());
        expect.extend_from_slice(&6u64.to_le_bytes());
        let params = model.params();
        expect.extend_from_slice(&(params.len() as u64).to_le_bytes());
        for v in params.iter() {
            expect.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(written, expect);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn deep_round_trip_preserves_params_exactly() {
        // v3: a depth-2 stack round-trips weights exactly, through both
        // the typed and the any-kind loader, in both storage widths.
        let path = tmp("deep");
        let model = Made::with_hidden(6, &[9, 7], 17);
        model.save(&path).unwrap();
        let restored = Made::load(&path).unwrap();
        assert_eq!(restored.hidden_sizes(), model.hidden_sizes());
        assert_eq!(restored.params().as_slice(), model.params().as_slice());
        let (any, precision) = load_any(&path).unwrap();
        assert_eq!(precision, Precision::F64);
        match any {
            AnyModel::Made(m) => {
                assert_eq!(m.params().as_slice(), model.params().as_slice())
            }
            other => panic!("expected made, got {}", other.kind()),
        }
        model.save_with_precision(&path, Precision::F32).unwrap();
        let narrowed = Made::load(&path).unwrap();
        for (a, b) in model.params().iter().zip(narrowed.params().iter()) {
            assert_eq!(*b, (*a as f32) as f64);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn depth1_v3_header_loads_to_same_weights_as_v2() {
        // A v3 file declaring a single hidden layer is legal and loads
        // to exactly the weights its v2 twin holds.
        let path = tmp("v3-depth1");
        let model = Made::new(5, 8, 3);
        let params = model.params();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"VQMC");
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(b"made");
        bytes.push(Precision::F64.tag());
        bytes.extend_from_slice(&5u64.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes()); // one hidden layer
        bytes.extend_from_slice(&8u64.to_le_bytes());
        bytes.extend_from_slice(&(params.len() as u64).to_le_bytes());
        for v in params.iter() {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        std::fs::write(&path, &bytes).unwrap();
        let restored = Made::load(&path).unwrap();
        assert_eq!(restored.hidden_sizes(), &[8]);
        assert_eq!(restored.params().as_slice(), params.as_slice());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn single_layer_kinds_reject_deep_headers() {
        // A v3 multi-layer header with an rbm kind tag must be a
        // structured error, not a panic or a silent reshape.
        let path = tmp("deep-rbm");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"VQMC");
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(b"rbm");
        bytes.push(Precision::F64.tag());
        bytes.extend_from_slice(&5u64.to_le_bytes());
        bytes.extend_from_slice(&2u64.to_le_bytes());
        bytes.extend_from_slice(&4u64.to_le_bytes());
        bytes.extend_from_slice(&4u64.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = Rbm::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(load_any(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn nade_kind_tag_is_rejected_by_name() {
        // A well-formed single-layer v3 file whose kind tag names no
        // supported architecture must fail with an error that says so.
        let path = tmp("nade-kind");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"VQMC");
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(b"nade");
        bytes.push(Precision::F64.tag());
        bytes.extend_from_slice(&5u64.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&4u64.to_le_bytes());
        bytes.extend_from_slice(&49u64.to_le_bytes()); // 2·h·n + h + n
        bytes.extend_from_slice(&[0u8; 49 * 8]);
        std::fs::write(&path, &bytes).unwrap();
        let err = load_any(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("nade"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rbm_round_trip() {
        let p1 = tmp("rbm");
        let rbm = Rbm::new(5, 7, 3);
        rbm.save(&p1).unwrap();
        let r2 = Rbm::load(&p1).unwrap();
        assert_eq!(rbm.params().as_slice(), r2.params().as_slice());
        std::fs::remove_file(&p1).ok();
    }

    #[test]
    fn load_any_dispatches_on_kind_tag() {
        let path = tmp("any");
        let savers: Vec<(Box<dyn Fn(&std::path::Path)>, &str)> = vec![
            (
                Box::new(|p: &std::path::Path| Made::new(5, 8, 2).save(p).unwrap()),
                "made",
            ),
            (
                Box::new(|p: &std::path::Path| Rbm::new(5, 5, 2).save(p).unwrap()),
                "rbm",
            ),
        ];
        for (save, expect) in savers {
            save(&path);
            let (any, precision) = load_any(&path).unwrap();
            assert_eq!(any.kind(), expect);
            assert_eq!(any.num_spins(), 5);
            assert_eq!(precision, Precision::F64);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_any_round_trips_parameters() {
        let path = tmp("any-params");
        let model = Made::new(6, 9, 42);
        model.save(&path).unwrap();
        match load_any(&path).unwrap() {
            (AnyModel::Made(m), Precision::F64) => {
                assert_eq!(m.params().as_slice(), model.params().as_slice())
            }
            (other, p) => panic!("expected made/f64, got {}/{p:?}", other.kind()),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn f32_storage_round_trips_within_one_rounding() {
        let path = tmp("f32-storage");
        let model = Made::new(6, 9, 23);
        model.save_with_precision(&path, Precision::F32).unwrap();
        // File is ~half the f64 size (header + 4-byte params).
        let f32_len = std::fs::metadata(&path).unwrap().len();
        let (any, precision) = load_any(&path).unwrap();
        assert_eq!(precision, Precision::F32);
        let restored = match any {
            AnyModel::Made(m) => m,
            other => panic!("expected made, got {}", other.kind()),
        };
        // Widened params equal the narrowed originals exactly (one
        // rounding at save, exact widening at load).
        for (a, b) in model.params().iter().zip(restored.params().iter()) {
            assert_eq!(*a as f32, *b as f32);
            assert_eq!(*b, (*a as f32) as f64);
        }
        model.save(&path).unwrap();
        let f64_len = std::fs::metadata(&path).unwrap().len();
        assert!(f32_len < f64_len * 2 / 3, "{f32_len} vs {f64_len}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn f32_save_then_typed_load_works() {
        let path = tmp("f32-typed");
        let model = Made::new(5, 7, 9);
        model.save_with_precision(&path, Precision::F32).unwrap();
        let restored = Made::load(&path).unwrap();
        assert_eq!(restored.num_spins(), 5);
        assert_eq!(restored.hidden_size(), 7);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_precision_tag_rejected() {
        let path = tmp("bad-precision");
        Made::new(4, 5, 1).save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // The precision byte sits right after magic(4) + version(4) +
        // kind_len(4) + kind("made" = 4).
        let off = 4 + 4 + 4 + 4;
        assert_eq!(bytes[off], Precision::F64.tag());
        bytes[off] = 7;
        std::fs::write(&path, &bytes).unwrap();
        let err = Made::load(&path).unwrap_err();
        assert!(err.to_string().contains("precision tag"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_checkpoints_still_load_as_f64() {
        // Hand-assemble a v1 file (no precision byte) and check both the
        // typed and any-kind loaders accept it.
        let path = tmp("v1-compat");
        let model = Made::new(4, 6, 11);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"VQMC");
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(b"made");
        bytes.extend_from_slice(&4u64.to_le_bytes());
        bytes.extend_from_slice(&6u64.to_le_bytes());
        let params = model.params();
        bytes.extend_from_slice(&(params.len() as u64).to_le_bytes());
        for v in params.iter() {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        std::fs::write(&path, &bytes).unwrap();
        let restored = Made::load(&path).unwrap();
        assert_eq!(restored.params().as_slice(), params.as_slice());
        let (_, precision) = load_any(&path).unwrap();
        assert_eq!(precision, Precision::F64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn kind_mismatch_rejected() {
        let path = tmp("kind-mismatch");
        Made::new(4, 5, 1).save(&path).unwrap();
        let err = Rbm::load(&path).unwrap_err();
        assert!(err.to_string().contains("expected"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_magic_rejected() {
        let path = tmp("bad-magic");
        std::fs::write(&path, b"NOPE-this-is-not-a-checkpoint").unwrap();
        let err = Made::load(&path).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_truncation_point_is_a_structured_error() {
        // The satellite-1 property: cut a valid checkpoint at EVERY
        // byte offset and require a structured io::Error (never a
        // panic) from both the typed and any-kind loaders — for a
        // depth-1 v2 file, a depth-2 v3 file, and an f32-storage file.
        let path = tmp("cuts");
        let make_files: Vec<Box<dyn Fn(&std::path::Path)>> = vec![
            Box::new(|p: &std::path::Path| Made::new(4, 5, 1).save(p).unwrap()),
            Box::new(|p: &std::path::Path| {
                Made::with_hidden(4, &[5, 3], 1).save(p).unwrap()
            }),
            Box::new(|p: &std::path::Path| {
                Made::new(4, 5, 1)
                    .save_with_precision(p, Precision::F32)
                    .unwrap()
            }),
        ];
        for (which, make) in make_files.iter().enumerate() {
            make(&path);
            let bytes = std::fs::read(&path).unwrap();
            for cut in 0..bytes.len() {
                std::fs::write(&path, &bytes[..cut]).unwrap();
                let err = Made::load(&path).unwrap_err();
                assert!(
                    matches!(
                        err.kind(),
                        io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                    ),
                    "file {which} cut {cut}: unexpected error kind {:?}",
                    err.kind()
                );
                assert!(load_any(&path).is_err(), "file {which} cut {cut}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn adversarial_shape_fields_rejected_without_huge_allocations() {
        // Overwrite each u64 shape field with u64::MAX (and other
        // hostile values) — the loader must answer InvalidData without
        // attempting a shape-sized allocation.
        let path = tmp("adversarial");
        Made::new(4, 5, 1).save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // v2 layout: magic 4 | ver 4 | kindlen 4 | kind 4 | prec 1 |
        // n 8 | h 8 | count 8 | params.
        let n_off = 4 + 4 + 4 + 4 + 1;
        let h_off = n_off + 8;
        let count_off = h_off + 8;
        for off in [n_off, h_off, count_off] {
            for hostile in [u64::MAX, 1 << 40, (1 << 24) + 1] {
                let mut b = bytes.clone();
                b[off..off + 8].copy_from_slice(&hostile.to_le_bytes());
                std::fs::write(&path, &b).unwrap();
                let err = Made::load(&path).unwrap_err();
                assert_eq!(
                    err.kind(),
                    io::ErrorKind::InvalidData,
                    "field at {off} = {hostile}: {err}"
                );
            }
        }
        // Zero shapes are equally invalid.
        for off in [n_off, h_off] {
            let mut b = bytes.clone();
            b[off..off + 8].copy_from_slice(&0u64.to_le_bytes());
            std::fs::write(&path, &b).unwrap();
            assert!(Made::load(&path).is_err(), "zero field at {off}");
        }
        // A hostile v3 layer count must be caught before the layer list
        // is read.
        let mut v3 = Vec::new();
        v3.extend_from_slice(b"VQMC");
        v3.extend_from_slice(&3u32.to_le_bytes());
        v3.extend_from_slice(&4u32.to_le_bytes());
        v3.extend_from_slice(b"made");
        v3.push(Precision::F64.tag());
        v3.extend_from_slice(&4u64.to_le_bytes());
        v3.extend_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &v3).unwrap();
        let err = Made::load(&path).unwrap_err();
        assert!(err.to_string().contains("layer count"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_rejected() {
        let path = tmp("truncated");
        Made::new(4, 5, 1).save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(Made::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
