//! The batched execution engine: turns a drained batch of work items
//! into replies with as few model passes as possible.
//!
//! Coalescing rules (all bit-identical to the single-request path —
//! property-tested):
//!
//! * `LogPsi` / `LocalEnergy` — all requests in the batch are
//!   concatenated into **one** configuration batch, pushed through one
//!   forward pass (plus the neighbour passes for local energies), and
//!   the result rows are scattered back per request.  Wavefunction
//!   forward passes are row-independent (each row's arithmetic touches
//!   only that row, in a fixed accumulation order), so coalescing K
//!   requests is bitwise identical to K sequential calls.
//! * `Sample` — delegated to `vqmc-sampler`'s unified
//!   [`BatchSampler`]: the engine owns **no** sampling implementation
//!   of its own.  The exact-AUTO model (MADE, through its fused panel
//!   pass) draws all requests in one combined incremental pass, each
//!   request's bits from its *own* seeded RNG stream —
//!   bit-identical to sampling each request alone, while the
//!   transcendental and `relu·dot` kernel work runs at the combined
//!   batch size (the paper's batch-parallelism lever, §4).  RBM falls
//!   back to per-request MCMC chains (inherently sequential per chain);
//!   the batcher still amortises queue wake-ups.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

use vqmc_hamiltonian::{
    local_energies_into, LocalEnergyConfig, LocalEnergyScratch, SparseRowHamiltonian,
};
use vqmc_nn::checkpoint::AnyModel;
use vqmc_nn::{MadeF32, MadeF32Workspace};
use vqmc_sampler::BatchSampler;
use vqmc_tensor::{Precision, SpinBatch, Vector, Workspace};

use crate::batcher::WorkItem;
use crate::protocol::{ErrorCode, Request, Response};

pub use vqmc_sampler::SampleRequest;

/// The hot-swappable model reference shared by every engine replica.
///
/// A checkpoint reload builds the new [`AnyModel`] off to the side,
/// then [`ModelSlot::swap`]s the `Arc` in — a pointer store under a
/// short write lock.  Engines re-read the slot at the *start of each
/// drained batch*, so a batch executes entirely against one model
/// (never a mix), requests already admitted run old or new weights
/// atomically, and nothing is dropped or drained during the swap.
pub struct ModelSlot {
    current: RwLock<Arc<AnyModel>>,
    /// Bumped on every swap; lets engines detect a pending swap with a
    /// relaxed load before touching the lock.
    version: AtomicU64,
}

impl ModelSlot {
    /// A slot serving `model`.
    pub fn new(model: Arc<AnyModel>) -> Self {
        ModelSlot {
            current: RwLock::new(model),
            version: AtomicU64::new(0),
        }
    }

    /// The currently-served model.
    pub fn get(&self) -> Arc<AnyModel> {
        Arc::clone(&self.current.read().expect("model slot poisoned"))
    }

    /// Atomically replaces the served model.
    pub fn swap(&self, model: Arc<AnyModel>) {
        *self.current.write().expect("model slot poisoned") = model;
        self.version.fetch_add(1, Ordering::Release);
    }

    /// Number of swaps so far.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }
}

/// Per-worker execution state: the shared read-only model plus all the
/// scratch the batched passes need (reused across batches, so the
/// steady state stays allocation-quiet like the training loop).
pub struct Engine {
    slot: Arc<ModelSlot>,
    /// Snapshot of the slot taken at the last batch boundary.
    model: Arc<AnyModel>,
    /// Slot version the snapshot corresponds to.
    model_version: u64,
    hamiltonian: Option<Arc<dyn SparseRowHamiltonian>>,
    le_config: LocalEnergyConfig,
    ws: Workspace,
    neigh_ws: Workspace,
    le_scratch: LocalEnergyScratch,
    sampler: BatchSampler,
    concat: SpinBatch,
    log_psi_buf: Vector,
    le_out: Vector,
    sample_batch: SpinBatch,
    sample_log_psi: Vector,
    /// Cached f32 forward weights (MADE only), built lazily on the
    /// first f32 request and keyed on the model's `params_version`.
    m32_fwd: Option<MadeF32>,
    /// f32 forward-pass scratch.
    ws32: MadeF32Workspace,
}

impl Engine {
    /// A fresh engine over a fixed model (one per worker thread); the
    /// model is wrapped in a private [`ModelSlot`], so this engine
    /// never observes a reload.  Use [`Engine::with_slot`] to share a
    /// hot-swappable slot across replicas.
    pub fn new(
        model: Arc<AnyModel>,
        hamiltonian: Option<Arc<dyn SparseRowHamiltonian>>,
        le_config: LocalEnergyConfig,
    ) -> Self {
        Engine::with_slot(Arc::new(ModelSlot::new(model)), hamiltonian, le_config)
    }

    /// An engine replica over a shared hot-swappable [`ModelSlot`].
    pub fn with_slot(
        slot: Arc<ModelSlot>,
        hamiltonian: Option<Arc<dyn SparseRowHamiltonian>>,
        le_config: LocalEnergyConfig,
    ) -> Self {
        let model = slot.get();
        let model_version = slot.version();
        if let Some(h) = &hamiltonian {
            assert_eq!(
                h.num_spins(),
                model.num_spins(),
                "hamiltonian/model spin-count mismatch"
            );
        }
        Engine {
            slot,
            model,
            model_version,
            hamiltonian,
            le_config,
            ws: Workspace::new(),
            neigh_ws: Workspace::new(),
            le_scratch: LocalEnergyScratch::new(),
            sampler: BatchSampler::new(),
            concat: SpinBatch::zeros(0, 0),
            log_psi_buf: Vector::default(),
            le_out: Vector::default(),
            sample_batch: SpinBatch::zeros(0, 0),
            sample_log_psi: Vector::default(),
            m32_fwd: None,
            ws32: MadeF32Workspace::new(),
        }
    }

    /// The served model (as of the last batch boundary).
    pub fn model(&self) -> &AnyModel {
        &self.model
    }

    /// Re-reads the shared slot at a batch boundary.  On a swap the
    /// cached f32 forward weights are invalidated — they were derived
    /// from the old model's parameters.
    fn refresh_model(&mut self) {
        let v = self.slot.version();
        if v != self.model_version {
            self.model = self.slot.get();
            self.model_version = v;
            self.m32_fwd = None;
        }
    }

    /// Executes one drained batch: groups by (operation, execution
    /// precision), runs one coalesced pass per group, and answers every
    /// item exactly once.  Coalescing only within a precision keeps the
    /// coalesced≡solo bit-identity contract valid per arm; a request
    /// without an explicit precision was resolved to the server default
    /// at admission, so `None` here only appears for items injected by
    /// in-process tests and means f64.
    pub fn execute(&mut self, items: Vec<WorkItem>) {
        self.refresh_model();
        let now = Instant::now();
        // Index 0 = f64 (tag 0), index 1 = f32 (tag 1).
        let mut log_psi_items = [Vec::new(), Vec::new()];
        let mut local_energy_items = [Vec::new(), Vec::new()];
        let mut sample_items = [Vec::new(), Vec::new()];
        for item in items {
            if now > item.deadline {
                item.respond(Response::error(
                    ErrorCode::DeadlineExceeded,
                    "request expired while queued",
                ));
                continue;
            }
            let (bucket, precision) = match &item.request {
                Request::LogPsi { precision, .. } => (&mut log_psi_items, *precision),
                Request::LocalEnergy { precision, .. } => (&mut local_energy_items, *precision),
                Request::Sample { precision, .. } => (&mut sample_items, *precision),
                // Ping/Shutdown are handled by the connection layer and
                // never enqueued; answer defensively if one slips in.
                _ => {
                    item.respond(Response::error(
                        ErrorCode::Internal,
                        "non-batchable request reached the engine",
                    ));
                    continue;
                }
            };
            let p = precision.unwrap_or(Precision::F64);
            bucket[p.tag() as usize].push(item);
        }
        for (group, precision) in log_psi_items.into_iter().zip([Precision::F64, Precision::F32]) {
            self.execute_log_psi(group, precision);
        }
        for (group, precision) in local_energy_items
            .into_iter()
            .zip([Precision::F64, Precision::F32])
        {
            self.execute_local_energy(group, precision);
        }
        for (group, precision) in sample_items.into_iter().zip([Precision::F64, Precision::F32]) {
            self.execute_samples(group, precision);
        }
    }

    /// Refreshes the cached f32 forward weights when the model has an
    /// f32 twin (MADE); returns `false` for a model that doesn't (RBM),
    /// which runs the f64 path regardless of requested precision —
    /// precision is a kernel choice, not an API guarantee.
    fn ensure_f32_weights(&mut self) -> bool {
        let AnyModel::Made(m) = self.model.as_ref() else {
            return false;
        };
        if self.m32_fwd.as_ref().map(|c| c.version()) != Some(m.params_version()) {
            self.m32_fwd = Some(MadeF32::for_log_psi(m));
        }
        true
    }

    /// `logψ` over `self.concat` into `self.log_psi_buf` at the
    /// requested execution precision.
    fn forward_concat(&mut self, precision: Precision) {
        if precision == Precision::F32 && self.ensure_f32_weights() {
            let m32 = self.m32_fwd.as_ref().expect("cached by ensure_f32_weights");
            m32.log_psi_into(&self.concat, &mut self.ws32, &mut self.log_psi_buf);
        } else {
            self.model
                .as_wavefunction()
                .log_psi_into(&self.concat, &mut self.ws, &mut self.log_psi_buf);
        }
    }

    fn gather<'a>(&mut self, batches: impl Iterator<Item = &'a SpinBatch> + Clone) -> Vec<usize> {
        let n = self.model.num_spins();
        let sizes: Vec<usize> = batches.clone().map(|b| b.batch_size()).collect();
        let total = sizes.iter().sum();
        self.concat.resize(total, n);
        let mut row = 0;
        for b in batches {
            for s in 0..b.batch_size() {
                self.concat.sample_mut(row).copy_from_slice(b.sample(s));
                row += 1;
            }
        }
        sizes
    }

    /// One forward pass over the concatenation of every `LogPsi`
    /// request in the precision group, scattered back per request.
    fn execute_log_psi(&mut self, items: Vec<WorkItem>, precision: Precision) {
        if items.is_empty() {
            return;
        }
        let sizes = self.gather(items.iter().map(|it| match &it.request {
            Request::LogPsi { batch, .. } => batch,
            _ => unreachable!("partitioned by execute"),
        }));
        self.forward_concat(precision);
        let mut offset = 0;
        for (item, size) in items.into_iter().zip(sizes) {
            let vals = Vector(self.log_psi_buf.as_slice()[offset..offset + size].to_vec());
            offset += size;
            item.respond(Response::Values(vals));
        }
    }

    /// One local-energy evaluation over the concatenation of every
    /// `LocalEnergy` request (one `logψ(x)` pass plus chunked neighbour
    /// passes), scattered back per request.
    fn execute_local_energy(&mut self, items: Vec<WorkItem>, precision: Precision) {
        if items.is_empty() {
            return;
        }
        let Some(h) = self.hamiltonian.clone() else {
            for item in items {
                item.respond(Response::error(
                    ErrorCode::BadRequest,
                    "server was started without a hamiltonian (--problem)",
                ));
            }
            return;
        };
        let sizes = self.gather(items.iter().map(|it| match &it.request {
            Request::LocalEnergy { batch, .. } => batch,
            _ => unreachable!("partitioned by execute"),
        }));
        if precision == Precision::F32 && self.ensure_f32_weights() {
            // Both the base pass and every neighbour pass run on the f32
            // twin, so the whole logψ ratio is consistently single
            // precision; only the energy accumulation itself is f64.
            let Engine {
                m32_fwd,
                ws32,
                concat,
                log_psi_buf,
                le_config,
                le_scratch,
                le_out,
                ..
            } = self;
            let m32 = m32_fwd.as_ref().expect("cached by ensure_f32_weights");
            m32.log_psi_into(concat, ws32, log_psi_buf);
            local_energies_into(
                h.as_ref(),
                concat,
                log_psi_buf,
                &mut |b, dst| m32.log_psi_into(b, ws32, dst),
                *le_config,
                le_scratch,
                le_out,
            );
        } else {
            let wf = self.model.as_wavefunction();
            wf.log_psi_into(&self.concat, &mut self.ws, &mut self.log_psi_buf);
            let neigh_ws = &mut self.neigh_ws;
            local_energies_into(
                h.as_ref(),
                &self.concat,
                &self.log_psi_buf,
                &mut |b, dst| wf.log_psi_into(b, neigh_ws, dst),
                self.le_config,
                &mut self.le_scratch,
                &mut self.le_out,
            );
        }
        let mut offset = 0;
        for (item, size) in items.into_iter().zip(sizes) {
            let vals = Vector(self.le_out.as_slice()[offset..offset + size].to_vec());
            offset += size;
            item.respond(Response::Values(vals));
        }
    }

    fn execute_samples(&mut self, items: Vec<WorkItem>, precision: Precision) {
        if items.is_empty() {
            return;
        }
        let reqs: Vec<SampleRequest> = items
            .iter()
            .map(|it| match &it.request {
                Request::Sample { count, seed, .. } => SampleRequest {
                    count: *count as usize,
                    seed: seed.expect("server assigns seeds at admission"),
                },
                _ => unreachable!("partitioned by execute"),
            })
            .collect();
        let replies = self.run_samples_with(precision, &reqs);
        for (item, reply) in items.into_iter().zip(replies) {
            item.respond(reply);
        }
    }

    /// Draws every sample request through the unified
    /// [`BatchSampler`], then splits the coalesced output back into
    /// per-request replies (one bulk row copy per request).  Public for
    /// the property tests (and for in-process embedding).
    pub fn run_samples(&mut self, reqs: &[SampleRequest]) -> Vec<Response> {
        self.run_samples_with(Precision::F64, reqs)
    }

    /// [`Engine::run_samples`] at an explicit execution precision
    /// (models without an f32 sampling twin silently run f64; see
    /// `BatchSampler::set_precision`).
    pub fn run_samples_with(
        &mut self,
        precision: Precision,
        reqs: &[SampleRequest],
    ) -> Vec<Response> {
        self.sampler.set_precision(precision);
        self.sampler.sample_requests(
            self.model.as_batched_sampling(),
            reqs,
            &mut self.sample_batch,
            &mut self.sample_log_psi,
        );
        let mut replies = Vec::with_capacity(reqs.len());
        let mut offset = 0;
        for req in reqs {
            let mut rows = SpinBatch::default();
            self.sample_batch
                .copy_rows_into(offset..offset + req.count, &mut rows);
            let lp = Vector(
                self.sample_log_psi.as_slice()[offset..offset + req.count].to_vec(),
            );
            offset += req.count;
            replies.push(Response::Samples {
                batch: rows,
                log_psi: lp,
            });
        }
        replies
    }

    /// `logψ` for one batch through the same path the coalesced pass
    /// uses (exposed for the identity property tests).
    pub fn run_log_psi(&mut self, batch: &SpinBatch) -> Vector {
        self.run_log_psi_with(batch, Precision::F64)
    }

    /// [`Engine::run_log_psi`] at an explicit execution precision.
    pub fn run_log_psi_with(&mut self, batch: &SpinBatch, precision: Precision) -> Vector {
        self.gather(std::iter::once(batch));
        self.forward_concat(precision);
        Vector(self.log_psi_buf.as_slice().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vqmc_nn::{Made, Rbm};
    use vqmc_sampler::{IncrementalAutoSampler, Sampler};
    use vqmc_tensor::batch::enumerate_configs;

    fn made_engine(n: usize, h: usize, seed: u64) -> Engine {
        Engine::new(
            Arc::new(AnyModel::Made(Made::new(n, h, seed))),
            None,
            LocalEnergyConfig::default(),
        )
    }

    #[test]
    fn coalesced_sample_replies_match_solo_incremental_sampler() {
        let mut engine = made_engine(9, 14, 123);
        let wf = match engine.model() {
            AnyModel::Made(m) => m.clone(),
            _ => unreachable!(),
        };
        let reqs = [
            SampleRequest { count: 5, seed: 11 },
            SampleRequest { count: 1, seed: 12 },
            SampleRequest { count: 17, seed: 13 },
            SampleRequest { count: 8, seed: 11 }, // duplicate seed is fine
        ];
        let replies = engine.run_samples(&reqs);
        for (req, reply) in reqs.iter().zip(replies) {
            let solo = IncrementalAutoSampler::new().sample(
                &wf,
                req.count,
                &mut StdRng::seed_from_u64(req.seed),
            );
            match reply {
                Response::Samples { batch, log_psi } => {
                    assert_eq!(
                        batch.as_bytes(),
                        solo.batch.as_bytes(),
                        "seed {}: configurations must be bit-identical",
                        req.seed
                    );
                    for s in 0..req.count {
                        assert_eq!(
                            log_psi[s].to_bits(),
                            solo.log_psi[s].to_bits(),
                            "seed {}: logψ must be bit-identical",
                            req.seed
                        );
                    }
                }
                other => panic!("expected Samples, got {other:?}"),
            }
        }
    }

    #[test]
    fn coalesced_log_psi_is_bit_identical_to_per_request_pass() {
        let mut engine = made_engine(6, 10, 7);
        let b1 = enumerate_configs(6);
        let b2 = SpinBatch::from_fn(5, 6, |s, i| ((s * 3 + i) % 2) as u8);
        let solo1 = engine.run_log_psi(&b1);
        let solo2 = engine.run_log_psi(&b2);

        // Through the WorkItem path with both requests in one batch.
        let (tx1, rx1) = std::sync::mpsc::channel();
        let (tx2, rx2) = std::sync::mpsc::channel();
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        engine.execute(vec![
            WorkItem {
                request: Request::LogPsi {
                    batch: b1.clone(),
                    precision: None,
                },
                reply: tx1.into(),
                deadline,
            },
            WorkItem {
                request: Request::LogPsi {
                    batch: b2.clone(),
                    precision: None,
                },
                reply: tx2.into(),
                deadline,
            },
        ]);
        let (r1, r2) = (rx1.recv().unwrap(), rx2.recv().unwrap());
        for (reply, solo) in [(r1, solo1), (r2, solo2)] {
            match reply {
                Response::Values(v) => {
                    assert_eq!(v.len(), solo.len());
                    for s in 0..v.len() {
                        assert_eq!(v[s].to_bits(), solo[s].to_bits(), "row {s}");
                    }
                }
                other => panic!("expected Values, got {other:?}"),
            }
        }
    }

    #[test]
    fn local_energy_without_hamiltonian_is_bad_request() {
        let mut engine = made_engine(5, 8, 3);
        let (tx, rx) = std::sync::mpsc::channel();
        engine.execute(vec![WorkItem {
            request: Request::LocalEnergy {
                batch: SpinBatch::zeros(2, 5),
                precision: None,
            },
            reply: tx.into(),
            deadline: Instant::now() + std::time::Duration::from_secs(5),
        }]);
        match rx.recv().unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn expired_items_get_deadline_exceeded_without_execution() {
        let mut engine = made_engine(5, 8, 3);
        let (tx, rx) = std::sync::mpsc::channel();
        engine.execute(vec![WorkItem {
            request: Request::Sample {
                count: 4,
                seed: Some(1),
                precision: None,
            },
            reply: tx.into(),
            deadline: Instant::now() - std::time::Duration::from_millis(1),
        }]);
        match rx.recv().unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::DeadlineExceeded),
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn f32_log_psi_tracks_f64_within_bound() {
        let mut engine = made_engine(48, 24, 99);
        let batch = SpinBatch::from_fn(32, 48, |s, i| ((s * 7 + i * 3) % 2) as u8);
        let f64_vals = engine.run_log_psi(&batch);
        let f32_vals = engine.run_log_psi_with(&batch, Precision::F32);
        let bound = 1e-5 * 48.0;
        for s in 0..batch.batch_size() {
            let err = (f32_vals[s] - f64_vals[s]).abs();
            assert!(
                err <= bound,
                "row {s}: |f32 - f64| = {err:.3e} exceeds {bound:.1e}"
            );
        }
    }

    #[test]
    fn f32_requests_coalesce_with_f64_without_cross_contamination() {
        // A mixed batch must split by precision: the f64 reply stays
        // bit-identical to the solo f64 pass and the f32 reply to the
        // solo f32 pass.
        let mut engine = made_engine(10, 12, 5);
        let batch = SpinBatch::from_fn(7, 10, |s, i| ((s + i) % 2) as u8);
        let solo64 = engine.run_log_psi(&batch);
        let solo32 = engine.run_log_psi_with(&batch, Precision::F32);

        let (tx64, rx64) = std::sync::mpsc::channel();
        let (tx32, rx32) = std::sync::mpsc::channel();
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        engine.execute(vec![
            WorkItem {
                request: Request::LogPsi {
                    batch: batch.clone(),
                    precision: Some(Precision::F64),
                },
                reply: tx64.into(),
                deadline,
            },
            WorkItem {
                request: Request::LogPsi {
                    batch: batch.clone(),
                    precision: Some(Precision::F32),
                },
                reply: tx32.into(),
                deadline,
            },
        ]);
        for (rx, solo, arm) in [(rx64, solo64, "f64"), (rx32, solo32, "f32")] {
            match rx.recv().unwrap() {
                Response::Values(v) => {
                    assert_eq!(v.len(), solo.len());
                    for s in 0..v.len() {
                        assert_eq!(v[s].to_bits(), solo[s].to_bits(), "{arm} row {s}");
                    }
                }
                other => panic!("expected Values, got {other:?}"),
            }
        }
    }

    #[test]
    fn f32_coalesced_sample_replies_match_solo_f32_requests() {
        let mut engine = made_engine(11, 16, 77);
        let reqs = [
            SampleRequest { count: 6, seed: 21 },
            SampleRequest { count: 2, seed: 22 },
            SampleRequest { count: 9, seed: 23 },
        ];
        let coalesced = engine.run_samples_with(Precision::F32, &reqs);
        for (req, reply) in reqs.iter().zip(coalesced) {
            let solo = engine
                .run_samples_with(Precision::F32, std::slice::from_ref(req))
                .pop()
                .unwrap();
            assert_eq!(reply, solo, "seed {}: coalesced f32 must equal solo f32", req.seed);
        }
    }

    #[test]
    fn rbm_sampling_is_deterministic_per_seed() {
        let model = AnyModel::Rbm(Rbm::new(6, 6, 2));
        let mut engine = Engine::new(Arc::new(model), None, LocalEnergyConfig::default());
        let reqs = [SampleRequest { count: 6, seed: 42 }];
        let a = engine.run_samples(&reqs);
        let b = engine.run_samples(&reqs);
        assert_eq!(a, b, "same seed must reproduce");
    }
}
