//! The four workloads. Each serves requests in a closed loop with one
//! client: the next request is sent when the previous one has answered.
//!
//! A request is served two ways. [`Workload::request`] calls the library's
//! serving entry point (`FleetEngine::run`, `FleetEngine::run_packed`,
//! `ArchiveSession`, `Phocus::solve`), which is what the end-to-end metrics
//! time. [`Workload::traced`] does the same work as a sequence of the
//! layers' public calls, each inside a span, so the wall can be attributed
//! to layers; its answers must be bit-identical to the untraced ones.

use crate::gen::{self, FleetShape};
use crate::trace::{Clock, Leaf};
use par_algo::{
    main_algorithm, main_algorithm_packed, main_algorithm_sharded, online_bound, GreedyRule,
    MainOutcome, SolveScratch,
};
use par_core::{
    exact_score, fnv1a64, pack_instance, shard_labels, unpack_instance, Instance, PhotoId,
    ShardLabels,
};
use par_datasets::{
    from_text, generate_churn, generate_openimages, resolve_epoch, to_text, ChurnConfig,
    ChurnTrace, PublicScale, TraceOp, Universe,
};
use phocus::{
    represent, ArchiveSession, Catalog, CatalogBuilder, FleetEngine, FleetEngineConfig,
    FleetTenant, PackedTenant, Parallelism, Phocus, PhocusConfig, RepresentationConfig,
    TenantOutcome,
};
use std::borrow::Cow;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One retained set, as served.
#[derive(Debug, Clone)]
pub(crate) struct Answer {
    /// Retained photos in selection order.
    pub selected: Vec<PhotoId>,
    /// Reported objective value.
    pub score: f64,
    /// Reported cost in bytes.
    pub cost: u64,
    /// Which greedy rule won.
    pub winner: GreedyRule,
}

impl Answer {
    fn of(outcome: &MainOutcome) -> Self {
        Answer {
            selected: outcome.best.selected.clone(),
            score: outcome.best.score,
            cost: outcome.best.cost,
            winner: outcome.winner,
        }
    }
}

/// Work counts of traced requests, summed.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Counters {
    /// Marginal-gain evaluations.
    pub gain_evals: u64,
    /// Similarity lookups.
    pub sim_ops: u64,
    /// CELF priority-queue pops.
    pub pq_pops: u64,
    /// Pops whose cached bound still led after recomputation.
    pub lazy_accepts: u64,
    /// Stored similarity pairs of the solved instances.
    pub stored_pairs: u64,
    /// Photo–query components of the solved instances.
    pub shards: u64,
    /// Bytes of request input (universe text or pack images).
    pub input_bytes: u64,
    /// Photos answered.
    pub photos: u64,
    /// Shards an epoch's delta dirtied.
    pub dirty_shards: u64,
    /// Streams replayed from a cached transcript.
    pub replayed: u64,
    /// Streams solved live.
    pub live: u64,
    /// Replay streams that diverged and went live.
    pub went_live: u64,
    /// Sum of Theorem 4.8 `α` values.
    pub alpha: f64,
}

impl Counters {
    /// Adds `other` into `self`.
    pub fn add(&mut self, o: &Counters) {
        self.gain_evals += o.gain_evals;
        self.sim_ops += o.sim_ops;
        self.pq_pops += o.pq_pops;
        self.lazy_accepts += o.lazy_accepts;
        self.stored_pairs += o.stored_pairs;
        self.shards += o.shards;
        self.input_bytes += o.input_bytes;
        self.photos += o.photos;
        self.dirty_shards += o.dirty_shards;
        self.replayed += o.replayed;
        self.live += o.live;
        self.went_live += o.went_live;
        self.alpha += o.alpha;
    }

    fn solved(inst: &Instance, shards: usize, outcome: &MainOutcome) -> Counters {
        let stats = outcome.total_stats();
        Counters {
            gain_evals: stats.gain_evals,
            sim_ops: stats.sim_ops,
            pq_pops: stats.pq_pops,
            lazy_accepts: stats.lazy_accepts,
            stored_pairs: inst.stored_pairs() as u64,
            shards: shards as u64,
            photos: inst.num_photos() as u64,
            ..Counters::default()
        }
    }
}

/// The answer to one request.
#[derive(Debug, Clone)]
pub(crate) struct Served {
    /// Photos in the answered instances.
    pub photos: u64,
    /// One answer per tenant (or per epoch).
    pub answers: Vec<Answer>,
    /// Work counts (traced requests only).
    pub counters: Counters,
}

impl Served {
    /// fnv1a64 over every answer's selected ids and score bits.
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::new();
        for a in &self.answers {
            bytes.extend_from_slice(&(a.selected.len() as u64).to_le_bytes());
            for p in &a.selected {
                bytes.extend_from_slice(&p.0.to_le_bytes());
            }
            bytes.extend_from_slice(&a.score.to_bits().to_le_bytes());
        }
        fnv1a64(&bytes)
    }
}

/// The outcome of the untimed checks.
#[derive(Debug, Default)]
pub(crate) struct Verification {
    /// Distinct requests whose answer failed a check, with the reason.
    pub failed: Vec<(usize, String)>,
    /// Online-bound ratio `G(S)/UB` of each checked answer.
    pub quality: Vec<f64>,
    /// Seconds spent in the global-CELF oracle (`main_algorithm`).
    pub oracle_s: f64,
    /// Oracle solves.
    pub oracle_calls: u64,
}

/// A workload: inputs made from a seed, a serving state, and checks.
pub(crate) trait Workload {
    /// Requests in one pass; request `k` repeats request `k % distinct()`.
    /// The timed phase serves whole passes, and the digest and work counts
    /// cover the first one.
    fn distinct(&self) -> usize;
    /// Builds the serving state. Timed as set-up; may run several times.
    fn setup(&mut self) -> Result<(), String>;
    /// Serves request `k` through the library's serving entry point.
    fn request(&mut self, k: usize) -> Result<Served, String>;
    /// Serves request `k` as the layers' public calls, each in a span.
    fn traced(&mut self, k: usize, clock: Clock, leaves: &mut Vec<Leaf>) -> Result<Served, String>;
    /// Untimed checks right after request `k`, for state that later
    /// requests change.
    fn after(&mut self, _k: usize, _served: &Served) -> Result<(), String> {
        Ok(())
    }
    /// Untimed checks after the timed phase; `firsts[j]` is the first
    /// answer to distinct request `j`.
    fn verify(&mut self, firsts: &[Served]) -> Verification;
    /// Returns the serving state to where set-up left it.
    fn reset(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Workload-specific counts for the traced run's report, per request.
    fn extras(&self, c: &Counters, requests: f64) -> Vec<(&'static str, f64, &'static str)>;
}

/// Budget of a fleet tenant or the archive, as a share of its bytes (the
/// `serve-batch` default).
const FLEET_BUDGET: f64 = 0.25;
/// Budget of a large library, as a share of its bytes.
const LIBRARY_BUDGET: f64 = 0.10;

/// The names of the workloads, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = [
    "fleet_text",
    "catalog_packed",
    "epoch_churn",
    "large_library",
];

/// Builds workload `name` from `seed` (`quick` for smoke-test sizes).
pub(crate) fn build(
    name: &str,
    seed: u64,
    quick: bool,
    threads: usize,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "fleet_text" => Box::new(FleetText::new(seed, quick, threads)),
        "catalog_packed" => Box::new(CatalogPacked::new(seed, quick, threads)),
        "epoch_churn" => Box::new(EpochChurn::new(seed, quick)?),
        "large_library" => Box::new(LargeLibrary::new(seed, quick, threads)),
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {NAMES:?} or all)"
            ))
        }
    })
}

// ---------------------------------------------------------------------------
// Checks

/// Feasibility and score of one answer on the instance it answers: no
/// unknown or duplicate ids, the reported cost is the true cost and within
/// the budget, `S₀ ⊆ S`, and the reported score is within 1e-9 (relative)
/// of `exact_score`. Bit equality is not required: the solvers accumulate
/// gains incrementally and `exact_score` sums per subset, so the two differ
/// in the last bits on most tenants while agreeing to 1e-9.
fn check_answer(inst: &Instance, a: &Answer) -> Result<(), String> {
    let mut seen = vec![false; inst.num_photos()];
    let mut cost = 0u64;
    for &p in &a.selected {
        let slot = seen
            .get_mut(p.index())
            .ok_or_else(|| format!("unknown photo {}", p.0))?;
        if *slot {
            return Err(format!("photo {} selected twice", p.0));
        }
        *slot = true;
        cost += inst.cost(p);
    }
    if cost != a.cost {
        return Err(format!(
            "reported cost {} but the selection costs {cost}",
            a.cost
        ));
    }
    if cost > inst.budget() {
        return Err(format!("cost {cost} exceeds the budget {}", inst.budget()));
    }
    if let Some(r) = inst.required().iter().find(|r| !seen[r.index()]) {
        return Err(format!("required photo {} not retained", r.0));
    }
    let exact = exact_score(inst, &a.selected);
    if (exact - a.score).abs() > 1e-9 * exact.abs().max(1.0) {
        return Err(format!(
            "reported score {} but exact_score is {exact}",
            a.score
        ));
    }
    Ok(())
}

/// The answer must equal the reference solve bit for bit.
fn check_oracle(a: &Answer, reference: &MainOutcome, what: &str) -> Result<(), String> {
    if a.selected != reference.best.selected
        || a.score.to_bits() != reference.best.score.to_bits()
        || a.winner != reference.winner
    {
        return Err(format!("answer differs from {what}"));
    }
    Ok(())
}

/// Checks one tenant answer, then compares it against the global CELF
/// oracle. Returns the online-bound ratio and the oracle's seconds.
fn check_tenant(inst: &Instance, a: &Answer) -> Result<(f64, f64), String> {
    check_answer(inst, a)?;
    let t0 = Instant::now();
    let reference = main_algorithm(inst);
    let oracle_s = t0.elapsed().as_secs_f64();
    check_oracle(a, &reference, "global main_algorithm")?;
    Ok((online_bound(inst, &a.selected).ratio, oracle_s))
}

/// Runs [`check_tenant`] over `(distinct request, answer slot)` pairs on
/// the pool, building each instance with `instance`.
fn verify_tenants<F>(firsts: &[Served], jobs: &[(usize, usize, usize)], instance: F) -> Verification
where
    F: Fn(usize) -> Result<Instance, String> + Sync,
{
    let results = par_exec::par_map_slice(jobs, |&(j, slot, tenant)| {
        let answer = firsts[j]
            .answers
            .get(slot)
            .ok_or_else(|| format!("no answer for tenant {tenant}"))?;
        check_tenant(&instance(tenant)?, answer)
    });
    let mut v = Verification::default();
    for (&(j, _, tenant), r) in jobs.iter().zip(results) {
        match r {
            Ok((ratio, oracle_s)) => {
                v.quality.push(ratio);
                v.oracle_s += oracle_s;
                v.oracle_calls += 1;
            }
            Err(e) => v.failed.push((j, format!("tenant {tenant}: {e}"))),
        }
    }
    v
}

fn outcomes_to_served(outcomes: Vec<TenantOutcome>) -> Result<Served, String> {
    let mut served = Served {
        photos: 0,
        answers: Vec::with_capacity(outcomes.len()),
        counters: Counters::default(),
    };
    for o in outcomes {
        let report = o.result.map_err(|e| format!("{}: {e}", o.name))?;
        served.photos += o.photos as u64;
        served.answers.push(Answer {
            selected: report.selected,
            score: report.score,
            cost: report.cost,
            winner: report.winner,
        });
    }
    Ok(served)
}

/// Largest-first order with ties by position — the fleet engine's schedule.
fn lpt_order(photos: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..photos.len()).collect();
    order.sort_by(|&a, &b| photos[b].cmp(&photos[a]).then(a.cmp(&b)));
    order
}

/// Solves prepared tenants the way the fleet engine does — largest first
/// over the pool, one `SolveScratch` per participant — with each call in a
/// span. `prepare` turns tenant `i` into an instance and its labels.
fn traced_fleet_solve<'a, P>(
    clock: Clock,
    photos: &[usize],
    leaves: &mut Vec<Leaf>,
    prepare: P,
) -> Result<Served, String>
where
    P: Fn(usize, &mut Vec<Leaf>) -> Result<(Cow<'a, Instance>, ShardLabels), String> + Sync,
{
    let order = lpt_order(photos);
    let mut results =
        par_exec::par_map_dynamic(order.len(), SolveScratch::default, |scratch, j| {
            let i = order[j];
            let mut spans = Vec::with_capacity(4);
            let (inst, labels) = prepare(i, &mut spans)?;
            let shards = labels.num_shards();
            let outcome = clock.span(&mut spans, "algo.sharded", || {
                main_algorithm_packed(&inst, labels, scratch)
            });
            let counters = Counters::solved(&inst, shards, &outcome);
            Ok::<_, String>((i, Answer::of(&outcome), spans, counters))
        })
        .into_iter()
        .collect::<Result<Vec<_>, String>>()?;
    results.sort_unstable_by_key(|r| r.0);
    let mut served = Served {
        photos: 0,
        answers: Vec::with_capacity(results.len()),
        counters: Counters::default(),
    };
    for (_, answer, spans, counters) in results {
        served.photos += counters.photos;
        served.counters.add(&counters);
        served.answers.push(answer);
        leaves.extend(spans);
    }
    Ok(served)
}

fn engine(threads: usize) -> FleetEngine {
    FleetEngine::new(FleetEngineConfig {
        representation: gen::representation(),
        parallelism: Parallelism::with_threads(threads),
        reuse_arenas: true,
    })
}

/// Tenant indices of batch `b` when `n` tenants, generated smallest first,
/// are dealt into `batches` batches in snake order (0, 1, …, last, last,
/// …, 1, 0, 0, 1, …). Every batch gets the same spread of library sizes
/// and nearly the same photo total, so requests differ little in work.
fn batch(b: usize, n: usize, batches: usize) -> impl Iterator<Item = usize> {
    (0..n).filter(move |&i| {
        let (round, pos) = (i / batches, i % batches);
        b == if round % 2 == 0 {
            pos
        } else {
            batches - 1 - pos
        }
    })
}

// ---------------------------------------------------------------------------
// fleet_text

/// `serve-batch --list`: tenant universes arrive as text, are parsed, and
/// the fleet engine represents and solves them.
struct FleetText {
    texts: Vec<String>,
    budgets: Vec<u64>,
    batches: usize,
    engine: FleetEngine,
    representation: RepresentationConfig,
}

impl FleetText {
    fn new(seed: u64, quick: bool, threads: usize) -> Self {
        let (shape, batches) = if quick {
            (FleetShape::new(24, 12, 240), 4)
        } else {
            (FleetShape::new(256, 24, 1500), 16)
        };
        let universes = gen::fleet(seed, shape);
        FleetText {
            budgets: universes
                .iter()
                .map(|u| gen::floored_budget(u, FLEET_BUDGET))
                .collect(),
            texts: universes.iter().map(to_text).collect(),
            batches,
            engine: engine(threads),
            representation: gen::representation(),
        }
    }

    fn parse(&self, i: usize) -> Result<Universe, String> {
        from_text(&self.texts[i]).map_err(|e| format!("tenant {i}: {e}"))
    }
}

impl Workload for FleetText {
    fn distinct(&self) -> usize {
        self.batches
    }

    /// One warm-up pass over every batch.
    fn setup(&mut self) -> Result<(), String> {
        (0..self.batches).try_for_each(|b| self.request(b).map(drop))
    }

    fn request(&mut self, k: usize) -> Result<Served, String> {
        let tenants = batch(k % self.batches, self.texts.len(), self.batches)
            .map(|i| {
                Ok(FleetTenant {
                    universe: self.parse(i)?,
                    budget: self.budgets[i],
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        outcomes_to_served(self.engine.run(&tenants))
    }

    fn traced(&mut self, k: usize, clock: Clock, leaves: &mut Vec<Leaf>) -> Result<Served, String> {
        let mut tenants = Vec::new();
        let mut input_bytes = 0u64;
        for i in batch(k % self.batches, self.texts.len(), self.batches) {
            let universe = clock.span(leaves, "datasets.io", || self.parse(i))?;
            input_bytes += self.texts[i].len() as u64;
            tenants.push(FleetTenant {
                universe,
                budget: self.budgets[i],
            });
        }
        let photos: Vec<usize> = tenants.iter().map(|t| t.universe.num_photos()).collect();
        let cfg = &self.representation;
        let mut served = traced_fleet_solve(clock, &photos, leaves, |i, spans| {
            let t = &tenants[i];
            let inst = clock
                .span(spans, "phocus.representation", || {
                    represent(&t.universe, t.budget, cfg)
                })
                .map_err(|e| format!("{}: {e}", t.universe.name))?;
            let labels = clock.span(spans, "core.components", || shard_labels(&inst));
            Ok((Cow::Owned(inst), labels))
        })?;
        served.counters.input_bytes = input_bytes;
        Ok(served)
    }

    fn verify(&mut self, firsts: &[Served]) -> Verification {
        let n = self.texts.len();
        let jobs: Vec<(usize, usize, usize)> = (0..self.batches)
            .flat_map(|b| {
                batch(b, n, self.batches)
                    .enumerate()
                    .map(move |(slot, i)| (b, slot, i))
            })
            .collect();
        verify_tenants(firsts, &jobs, |i| {
            represent(&self.parse(i)?, self.budgets[i], &self.representation)
                .map_err(|e| e.to_string())
        })
    }

    fn extras(&self, c: &Counters, requests: f64) -> Vec<(&'static str, f64, &'static str)> {
        vec![(
            "datasets.io.mb",
            c.input_bytes as f64 / 1e6 / requests,
            "MB",
        )]
    }
}

// ---------------------------------------------------------------------------
// catalog_packed

/// A directory under `.bench_tmp/` in the working directory, removed when
/// dropped — on success, on error returns and on panics alike.
#[derive(Debug)]
struct TempDir(PathBuf);

impl TempDir {
    /// Creates an empty directory named after `tag` and this process.
    fn new(tag: &str) -> Result<Self, String> {
        let cwd = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
        let path = cwd
            .join(".bench_tmp")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(TempDir(path))
    }

    /// The directory.
    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once the last benchmark directory is gone.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// `serve-batch --catalog`: tenants are loaded from `phocus-pack` files of
/// an on-disk catalog and solved by the fleet engine; parsing and
/// representation are paid once, at catalog build time (set-up).
struct CatalogPacked {
    universes: Vec<Universe>,
    batches: usize,
    engine: FleetEngine,
    representation: RepresentationConfig,
    builds: usize,
    /// Declared before `dir` so it is dropped first.
    catalog: Option<Catalog>,
    dir: Option<TempDir>,
}

impl CatalogPacked {
    fn new(seed: u64, quick: bool, threads: usize) -> Self {
        let (shape, batches) = if quick {
            (FleetShape::new(48, 12, 240), 2)
        } else {
            (FleetShape::new(256, 24, 1500), 8)
        };
        CatalogPacked {
            universes: gen::fleet(seed, shape),
            batches,
            engine: engine(threads),
            representation: gen::representation(),
            builds: 0,
            catalog: None,
            dir: None,
        }
    }

    fn catalog(&self) -> Result<&Catalog, String> {
        self.catalog
            .as_ref()
            .ok_or_else(|| "catalog not built".to_string())
    }
}

impl Workload for CatalogPacked {
    fn distinct(&self) -> usize {
        self.batches
    }

    /// `phocus catalog build`: represent and pack the tenants one by one,
    /// writing each pack as it is made, then the index; then open the
    /// catalog as a server would. (Collecting every pack first, from a
    /// parallel map, was no faster on two cores and tripled the peak
    /// memory.)
    fn setup(&mut self) -> Result<(), String> {
        self.catalog = None;
        self.dir = None;
        let dir = TempDir::new(&format!("catalog{}", self.builds))?;
        self.builds += 1;
        let cfg = &self.representation;
        let mut builder = CatalogBuilder::create(dir.path()).map_err(|e| e.to_string())?;
        for u in &self.universes {
            let budget = gen::floored_budget(u, FLEET_BUDGET);
            let inst = represent(u, budget, cfg).map_err(|e| format!("{}: {e}", u.name))?;
            let bytes = pack_instance(&inst).map_err(|e| format!("{}: {e}", u.name))?;
            builder
                .add_pack(&u.name, &bytes, inst.num_photos() as u64, inst.budget())
                .map_err(|e| e.to_string())?;
        }
        builder.finish().map_err(|e| e.to_string())?;
        let catalog = Catalog::open(dir.path()).map_err(|e| e.to_string())?;
        if catalog.entries().len() != self.universes.len() {
            return Err("catalog lost tenants".into());
        }
        self.catalog = Some(catalog);
        self.dir = Some(dir);
        Ok(())
    }

    fn request(&mut self, k: usize) -> Result<Served, String> {
        let catalog = self.catalog()?;
        let entries = catalog.entries();
        let tenants = batch(k % self.batches, entries.len(), self.batches)
            .map(|i| {
                let e = &entries[i];
                Ok(PackedTenant {
                    name: e.name.clone(),
                    packed: catalog
                        .load(e)
                        .map_err(|err| format!("{}: {err}", e.name))?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        outcomes_to_served(self.engine.run_packed(&tenants))
    }

    fn traced(&mut self, k: usize, clock: Clock, leaves: &mut Vec<Leaf>) -> Result<Served, String> {
        let catalog = self.catalog()?;
        let entries = catalog.entries();
        let mut packed = Vec::new();
        let mut input_bytes = 0u64;
        for i in batch(k % self.batches, entries.len(), self.batches) {
            let e = &entries[i];
            // `Catalog::load`, split at its two layers: the catalog's file
            // read and checksum, then the pack decoder.
            let bytes = clock.span(leaves, "phocus.catalog", || {
                let bytes = std::fs::read(catalog.root().join(&e.pack))
                    .map_err(|err| format!("{}: {err}", e.name))?;
                if fnv1a64(&bytes) != e.checksum {
                    return Err(format!("{}: pack checksum mismatch", e.name));
                }
                Ok(bytes)
            })?;
            input_bytes += bytes.len() as u64;
            let p = clock
                .span(leaves, "core.pack", || unpack_instance(&bytes))
                .map_err(|err| format!("{}: {err}", e.name))?;
            packed.push(p);
        }
        let photos: Vec<usize> = packed.iter().map(|p| p.instance.num_photos()).collect();
        let mut served = traced_fleet_solve(clock, &photos, leaves, |i, _| {
            Ok((Cow::Borrowed(&packed[i].instance), packed[i].labels.clone()))
        })?;
        // Freeing the decoded instances ends the pack layer's part of the
        // request; the untraced path pays it when its tenants drop.
        clock.span(leaves, "core.pack", || drop(packed));
        served.counters.input_bytes = input_bytes;
        Ok(served)
    }

    fn verify(&mut self, firsts: &[Served]) -> Verification {
        let catalog = self.catalog.as_ref().expect("set-up built the catalog");
        let entries = catalog.entries();
        let jobs: Vec<(usize, usize, usize)> = (0..self.batches)
            .flat_map(|b| {
                batch(b, entries.len(), self.batches)
                    .enumerate()
                    .map(move |(slot, i)| (b, slot, i))
            })
            .collect();
        verify_tenants(firsts, &jobs, |i| {
            catalog
                .load(&entries[i])
                .map(|p| p.instance)
                .map_err(|e| e.to_string())
        })
    }

    fn extras(&self, c: &Counters, requests: f64) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("core.pack.mb", c.input_bytes as f64 / 1e6 / requests, "MB"),
            (
                "core.pack.bytes_per_photo",
                c.input_bytes as f64 / c.photos.max(1) as f64,
                "B",
            ),
        ]
    }
}

// ---------------------------------------------------------------------------
// epoch_churn

/// `phocus epochs`: one resident archive session replaying a churn trace.
///
/// The trace is replayed in cycles: after its last epoch the session is
/// reopened, untimed, and the next request is epoch 1 again. Generating a
/// trace costs about as much as serving it, so a short trace replayed many
/// times keeps generation cheap; every epoch is served about ten times a
/// run, so its fastest repeat is found; and every later cycle must answer
/// exactly as the first did.
struct EpochChurn {
    archive: Universe,
    budget: u64,
    trace: ChurnTrace,
    representation: RepresentationConfig,
    session: Option<ArchiveSession>,
    /// Online-bound ratio of every epoch of the first cycle, by request.
    quality: std::collections::BTreeMap<usize, f64>,
}

/// Every this-many epochs of the first cycle, the answer is compared
/// against a from-scratch sharded solve of the same instance.
const ORACLE_EVERY: usize = 10;

impl EpochChurn {
    fn new(seed: u64, quick: bool) -> Result<Self, String> {
        let (shape, epochs) = if quick {
            (FleetShape::new(48, 12, 120), 10)
        } else {
            (FleetShape::new(1024, 12, 240), 20)
        };
        let archive = gen::merged_archive(&format!("archive-s{seed}"), &gen::fleet(seed, shape));
        let budget = gen::floored_budget(&archive, FLEET_BUDGET);
        let representation = gen::representation();
        // The trace is a function of the represented archive, so making it
        // costs one representation outside every timer.
        let base = represent(&archive, budget, &representation).map_err(|e| e.to_string())?;
        let n = base.num_photos() as f64;
        let churn = 0.01;
        let mut trace = generate_churn(
            &base,
            &ChurnConfig {
                epochs,
                removal_fraction: churn / 2.0,
                arrivals_mean: churn * n / 2.0,
                drift_mean: 1.0,
                budget_wobble: 0.05,
                seed,
                ..Default::default()
            },
        )
        .map_err(|e| e.to_string())?;
        anchor_budgets(&mut trace, budget);
        Ok(EpochChurn {
            archive,
            budget,
            trace,
            representation,
            session: None,
            quality: Default::default(),
        })
    }
}

/// Re-anchors every budget change of `trace` at `base`: each epoch keeps
/// the generator's random factor in ±`budget_wobble` but applies it to the
/// base budget instead of the previous one. The generator's budget is a
/// random walk (its drift after `k` epochs has a standard deviation of
/// about 3%·√k), so each seed's cycle would run at its own budget level, and
/// the solve work and answer quality with it; anchored, every epoch still
/// changes the budget and every seed stays near a quarter of the archive.
fn anchor_budgets(trace: &mut ChurnTrace, base: u64) {
    let mut previous = base;
    for op in trace.epochs.iter_mut().flatten() {
        if let TraceOp::Budget { bytes } = op {
            let factor = *bytes as f64 / previous as f64;
            previous = *bytes;
            *bytes = (base as f64 * factor) as u64;
        }
    }
}

impl Workload for EpochChurn {
    fn distinct(&self) -> usize {
        self.trace.epochs.len()
    }

    /// Represent the archive, open the session and solve epoch 0.
    fn setup(&mut self) -> Result<(), String> {
        self.session = None;
        let inst = represent(&self.archive, self.budget, &self.representation)
            .map_err(|e| e.to_string())?;
        let mut session = ArchiveSession::new(inst);
        session.resolve();
        self.session = Some(session);
        Ok(())
    }

    fn request(&mut self, k: usize) -> Result<Served, String> {
        let ops = &self.trace.epochs[k % self.trace.epochs.len()];
        let session = self.session.as_mut().ok_or("session not open")?;
        let delta = resolve_epoch(ops, session.instance()).map_err(|e| e.to_string())?;
        let solve = session
            .apply_delta(&delta)
            .map_err(|e| e.to_string())?
            .resolve();
        Ok(Served {
            photos: session.instance().num_photos() as u64,
            answers: vec![Answer::of(&solve.outcome)],
            counters: Counters::default(),
        })
    }

    fn traced(&mut self, k: usize, clock: Clock, leaves: &mut Vec<Leaf>) -> Result<Served, String> {
        let ops = &self.trace.epochs[k % self.trace.epochs.len()];
        let session = self.session.as_mut().ok_or("session not open")?;
        let delta = clock
            .span(leaves, "datasets.churn", || {
                resolve_epoch(ops, session.instance())
            })
            .map_err(|e| e.to_string())?;
        clock
            .span(leaves, "phocus.session.apply", || {
                session.apply_delta(&delta).map(drop)
            })
            .map_err(|e| e.to_string())?;
        let solve = clock.span(leaves, "phocus.session.resolve", || session.resolve());
        let inst = session.instance();
        let delta_stats = session.last_delta_stats().ok_or("delta stats missing")?;
        let mut counters = Counters::solved(inst, delta_stats.num_shards, &solve.outcome);
        counters.gain_evals = solve.report.gain_evals;
        counters.dirty_shards = delta_stats.dirty_shards as u64;
        counters.replayed = solve.report.replayed_streams as u64;
        counters.live = solve.report.live_streams as u64;
        counters.went_live = solve.report.went_live as u64;
        Ok(Served {
            photos: inst.num_photos() as u64,
            answers: vec![Answer::of(&solve.outcome)],
            counters,
        })
    }

    fn after(&mut self, k: usize, served: &Served) -> Result<(), String> {
        let epochs = self.trace.epochs.len();
        if k < epochs {
            let inst = self.session.as_ref().ok_or("session not open")?.instance();
            let answer = &served.answers[0];
            check_answer(inst, answer)?;
            if (k + 1).is_multiple_of(ORACLE_EVERY) {
                let reference = main_algorithm_sharded(inst);
                check_oracle(answer, &reference, "a from-scratch sharded solve")?;
            }
            self.quality
                .insert(k, online_bound(inst, &answer.selected).ratio);
        }
        if (k + 1).is_multiple_of(epochs) {
            self.setup()?;
        }
        Ok(())
    }

    fn verify(&mut self, _firsts: &[Served]) -> Verification {
        // The first cycle was checked epoch by epoch as it was served; later
        // cycles must match it digest for digest.
        Verification {
            quality: self.quality.values().copied().collect(),
            ..Verification::default()
        }
    }

    fn reset(&mut self) -> Result<(), String> {
        self.setup()
    }

    fn extras(&self, c: &Counters, requests: f64) -> Vec<(&'static str, f64, &'static str)> {
        let streams = (c.replayed + c.live).max(1) as f64;
        vec![
            (
                "phocus.session.apply.dirty_shard_frac",
                c.dirty_shards as f64 / c.shards.max(1) as f64,
                "ratio",
            ),
            (
                "phocus.session.resolve.replay_ratio",
                c.replayed as f64 / streams,
                "ratio",
            ),
            (
                "phocus.session.resolve.went_live",
                c.went_live as f64 / requests,
                "count",
            ),
        ]
    }
}

// ---------------------------------------------------------------------------
// large_library

/// `phocus solve --dataset file:…`: a large library, parsed from text,
/// represented (contexts above 48 members take the LSH path), solved and
/// certified with the online bound and the Theorem 4.8 bound.
///
/// Requests cycle over a few libraries generated from the seed. How much
/// LSH work a library needs depends on how its largest contexts cluster,
/// which moves one library's time by ±20% from seed to seed; a cycle of
/// several averages that out.
struct LargeLibrary {
    texts: Vec<String>,
    budgets: Vec<u64>,
    solver: Phocus,
}

impl LargeLibrary {
    fn new(seed: u64, quick: bool, threads: usize) -> Self {
        let (scale, libraries) = if quick {
            (PublicScale::P1K, 2)
        } else {
            (PublicScale::P10K, 4)
        };
        let universes: Vec<Universe> = (0..libraries)
            .map(|i| generate_openimages(&scale.config(gen::mix(seed, i))))
            .collect();
        LargeLibrary {
            budgets: universes
                .iter()
                .map(|u| gen::floored_budget(u, LIBRARY_BUDGET))
                .collect(),
            texts: universes.iter().map(to_text).collect(),
            solver: Phocus::new(PhocusConfig {
                representation: gen::representation(),
                certify_sparsification: true,
                parallelism: Parallelism::with_threads(threads),
                sharding: true,
            }),
        }
    }

    fn parse(&self, k: usize) -> Result<Universe, String> {
        from_text(&self.texts[k % self.texts.len()]).map_err(|e| e.to_string())
    }

    fn budget(&self, k: usize) -> u64 {
        self.budgets[k % self.budgets.len()]
    }
}

impl Workload for LargeLibrary {
    fn distinct(&self) -> usize {
        self.texts.len()
    }

    fn setup(&mut self) -> Result<(), String> {
        self.request(0).map(drop)
    }

    fn request(&mut self, k: usize) -> Result<Served, String> {
        let universe = self.parse(k)?;
        let report = self
            .solver
            .solve(&universe, self.budget(k))
            .map_err(|e| e.to_string())?;
        Ok(Served {
            photos: universe.num_photos() as u64,
            answers: vec![Answer {
                selected: report.selected,
                score: report.score,
                cost: report.cost,
                winner: report.winner,
            }],
            counters: Counters::default(),
        })
    }

    fn traced(&mut self, k: usize, clock: Clock, leaves: &mut Vec<Leaf>) -> Result<Served, String> {
        let universe = clock.span(leaves, "datasets.io", || self.parse(k))?;
        let cfg = &self.solver.config.representation;
        let budget = self.budget(k);
        let inst = clock
            .span(leaves, "phocus.representation", || {
                represent(&universe, budget, cfg)
            })
            .map_err(|e| e.to_string())?;
        let labels = clock.span(leaves, "core.components", || shard_labels(&inst));
        let shards = labels.num_shards();
        let outcome = clock.span(leaves, "algo.sharded", || {
            main_algorithm_packed(&inst, labels, &mut SolveScratch::default())
        });
        let ratio = clock.span(leaves, "algo.online_bound", || {
            online_bound(&inst, &outcome.best.selected).ratio
        });
        let cert = clock.span(leaves, "sparse.bound", || {
            par_sparse::sparsification_bound(&inst, gen::LSH_TAU)
        });
        if !(ratio > 0.0 && cert.alpha > 0.0) {
            return Err(format!(
                "degenerate certificates: ratio {ratio}, alpha {}",
                cert.alpha
            ));
        }
        let mut counters = Counters::solved(&inst, shards, &outcome);
        counters.input_bytes = self.texts[k % self.texts.len()].len() as u64;
        counters.alpha = cert.alpha;
        Ok(Served {
            photos: inst.num_photos() as u64,
            answers: vec![Answer::of(&outcome)],
            counters,
        })
    }

    fn verify(&mut self, firsts: &[Served]) -> Verification {
        let jobs: Vec<(usize, usize, usize)> = (0..self.texts.len()).map(|k| (k, 0, k)).collect();
        let cfg = &self.solver.config.representation;
        verify_tenants(firsts, &jobs, |k| {
            represent(&self.parse(k)?, self.budget(k), cfg).map_err(|e| e.to_string())
        })
    }

    fn extras(&self, c: &Counters, requests: f64) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            (
                "datasets.io.mb",
                c.input_bytes as f64 / 1e6 / requests,
                "MB",
            ),
            ("sparse.bound.alpha", c.alpha / requests, "ratio"),
        ]
    }
}
