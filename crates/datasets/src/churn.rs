//! Churn-trace generation and replay for the epoch-resident solver.
//!
//! The incremental experiments (BENCH_incremental, `phocus epochs`) need
//! reproducible streams of [`EpochDelta`]s: photos arriving and leaving,
//! queries drifting, the budget wobbling. This module provides
//!
//! * a **generator** ([`generate_churn`]) that evolves a base [`Instance`]
//!   for a configured number of epochs — Zipf-skewed photo arrivals attached
//!   via fresh drift queries, removals of cold photos, query retirement,
//!   required-flag flips, and optional budget wobble — validating every
//!   epoch against `par_core::apply_delta` so the emitted trace is
//!   guaranteed to replay cleanly over the whole chain;
//! * a **text format** (`# phocus-trace v1`, [`trace_to_text`] /
//!   [`trace_from_text`]) so traces can be archived and replayed by the CLI.
//!   Operations reference photos and queries **by name**, not by id: dense
//!   ids are compacted on every removal, so a name is the only reference
//!   that stays stable across epochs;
//! * a **resolver** ([`resolve_epoch`]) that turns one epoch's name-based
//!   operations into a concrete [`EpochDelta`] against the *live* instance
//!   (pre-delta ids), which is exactly what `ArchiveSession::apply_delta`
//!   consumes. Replay loop: resolve epoch `k` against the current instance,
//!   apply, repeat.
//!
//! Like the universe format in [`crate::io`], the trace format is
//! tab-separated, line-oriented, and its parser never panics on arbitrary
//! input (exercised by the workspace fuzz tests).

use crate::error::DatasetError;
use crate::io::ParseError;
use crate::openimages::{lognormal_cost, sample_count};
use crate::zipf::Zipf;
use par_core::{EpochDelta, Instance, MemberRef, PhotoAdd, PhotoId, QueryAdd, SubsetId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Convenience alias.
type Result<T> = std::result::Result<T, DatasetError>;

/// One name-based operation of a churn trace. The variants mirror the fields
/// of [`EpochDelta`], with photos and queries identified by name/label so
/// the trace survives the id compaction every removal triggers.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceOp {
    /// A photo arrives with the given storage cost; `required` pins it.
    AddPhoto {
        /// Unique photo name (no tabs or newlines).
        name: String,
        /// Storage cost in bytes (strictly positive).
        cost: u64,
        /// Whether policy pins the photo on arrival.
        required: bool,
    },
    /// A photo leaves the archive.
    RemovePhoto {
        /// Name of the photo to purge.
        name: String,
    },
    /// A query arrives. Members may name photos added earlier in the *same*
    /// epoch.
    AddQuery {
        /// Unique query label (no tabs or newlines).
        label: String,
        /// Importance weight `W(q)`.
        weight: f64,
        /// `(photo name, raw relevance)` per member; relevance is normalized
        /// at apply time.
        members: Vec<(String, f64)>,
        /// Sparse similarity pairs over local member positions.
        pairs: Vec<(u32, u32, f64)>,
    },
    /// A query is retired.
    RetireQuery {
        /// Label of the query to retire.
        label: String,
    },
    /// A photo gains the policy-retained flag.
    Require {
        /// Name of the photo to pin.
        name: String,
    },
    /// A photo loses the policy-retained flag.
    Unrequire {
        /// Name of the photo to release.
        name: String,
    },
    /// The storage budget changes to an absolute byte count.
    Budget {
        /// New budget in bytes.
        bytes: u64,
    },
}

/// A named sequence of epochs, each a list of name-based operations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChurnTrace {
    /// Trace name (carried through the text format).
    pub name: String,
    /// Operations per epoch, in application order.
    pub epochs: Vec<Vec<TraceOp>>,
}

/// Configuration for [`generate_churn`]. The churn magnitude is expressed as
/// fractions of the *current* instance size, so the same config scales from
/// toy fixtures to Open-Images-sized corpora.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnConfig {
    /// Number of epochs to generate.
    pub epochs: usize,
    /// Fraction of (non-required) photos removed per epoch.
    pub removal_fraction: f64,
    /// Mean number of photo arrivals per epoch.
    pub arrivals_mean: f64,
    /// Probability that an arrival is attached to existing photos via a
    /// fresh drift query (otherwise it lands as an isolated singleton).
    pub attach_prob: f64,
    /// Mean number of standalone drift queries (over existing photos only)
    /// per epoch.
    pub drift_mean: f64,
    /// Per-epoch probability of retiring one random query.
    pub retire_prob: f64,
    /// Per-epoch probability of flipping one photo's required flag.
    pub flip_prob: f64,
    /// Relative budget wobble per epoch (`0.0` disables budget changes; the
    /// budget never drops below the post-churn required cost).
    pub budget_wobble: f64,
    /// Zipf exponent skewing which existing photos attract drift queries
    /// (rank 0 = oldest surviving photo).
    pub zipf_exponent: f64,
    /// Master RNG seed; the whole trace is a pure function of `(base
    /// instance, config)`.
    pub seed: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            epochs: 8,
            removal_fraction: 0.01,
            arrivals_mean: 2.0,
            attach_prob: 0.8,
            drift_mean: 1.0,
            retire_prob: 0.25,
            flip_prob: 0.25,
            budget_wobble: 0.0,
            zipf_exponent: 1.1,
            seed: 7,
        }
    }
}

impl ChurnConfig {
    fn validate(&self) -> Result<()> {
        let frac = |v: f64, what: &str| {
            if !(0.0..=1.0).contains(&v) {
                return Err(DatasetError::InvalidUniverse(format!(
                    "churn config: {what} must lie in [0, 1], got {v}"
                )));
            }
            Ok(())
        };
        frac(self.removal_fraction, "removal_fraction")?;
        frac(self.attach_prob, "attach_prob")?;
        frac(self.retire_prob, "retire_prob")?;
        frac(self.flip_prob, "flip_prob")?;
        if !self.arrivals_mean.is_finite() || self.arrivals_mean < 0.0 {
            return Err(DatasetError::InvalidUniverse(format!(
                "churn config: arrivals_mean must be finite and non-negative, got {}",
                self.arrivals_mean
            )));
        }
        if !self.drift_mean.is_finite() || self.drift_mean < 0.0 {
            return Err(DatasetError::InvalidUniverse(format!(
                "churn config: drift_mean must be finite and non-negative, got {}",
                self.drift_mean
            )));
        }
        if !self.budget_wobble.is_finite() || !(0.0..1.0).contains(&self.budget_wobble) {
            return Err(DatasetError::InvalidUniverse(format!(
                "churn config: budget_wobble must lie in [0, 1), got {}",
                self.budget_wobble
            )));
        }
        Ok(())
    }
}

fn err(line: usize, message: impl Into<String>) -> DatasetError {
    DatasetError::Parse(ParseError {
        line,
        message: message.into(),
    })
}

fn resolve_err(msg: String) -> DatasetError {
    DatasetError::TraceResolve(msg)
}

/// What a pass over the live instance found under one name.
#[derive(Debug, Clone, Copy)]
enum Seen<I> {
    /// No photo (or query) of the instance carries the name.
    Never,
    /// Exactly one does.
    Once(I),
    /// More than one does: the name is ambiguous and resolution refuses to
    /// guess.
    Twice,
}

impl<I> Seen<I> {
    fn see(&mut self, id: I) {
        *self = match self {
            Seen::Never => Seen::Once(id),
            _ => Seen::Twice,
        };
    }
}

/// A name lookup table over the live instance. A name missing from the
/// table is unknown, like one the instance never carried.
struct NameMaps<'a> {
    photos: HashMap<&'a str, Seen<PhotoId>>,
    subsets: HashMap<&'a str, Seen<SubsetId>>,
}

impl<'a> NameMaps<'a> {
    /// The photo names and query labels `ops` reference, each resolved
    /// against `inst`. The table is as small as the epoch: one pass over the
    /// instance looks every name up in it and never grows it.
    fn referenced(ops: &'a [TraceOp], inst: &Instance) -> Self {
        let mut photos: HashMap<&str, Seen<PhotoId>> = HashMap::new();
        let mut subsets: HashMap<&str, Seen<SubsetId>> = HashMap::new();
        for op in ops {
            match op {
                TraceOp::RemovePhoto { name }
                | TraceOp::Require { name }
                | TraceOp::Unrequire { name } => {
                    photos.insert(name, Seen::Never);
                }
                TraceOp::AddQuery { members, .. } => {
                    for (name, _) in members {
                        photos.insert(name, Seen::Never);
                    }
                }
                TraceOp::RetireQuery { label } => {
                    subsets.insert(label, Seen::Never);
                }
                TraceOp::AddPhoto { .. } | TraceOp::Budget { .. } => {}
            }
        }
        for p in inst.photos() {
            if let Some(seen) = photos.get_mut(&*p.name) {
                seen.see(p.id);
            }
        }
        for s in inst.subsets() {
            if let Some(seen) = subsets.get_mut(&*s.label) {
                seen.see(s.id);
            }
        }
        NameMaps { photos, subsets }
    }

    fn photo(&self, name: &str) -> Result<PhotoId> {
        match self.photos.get(name) {
            Some(Seen::Once(id)) => Ok(*id),
            Some(Seen::Twice) => Err(resolve_err(format!("photo name `{name}` is ambiguous"))),
            Some(Seen::Never) | None => Err(resolve_err(format!("unknown photo name `{name}`"))),
        }
    }

    fn subset(&self, label: &str) -> Result<SubsetId> {
        match self.subsets.get(label) {
            Some(Seen::Once(id)) => Ok(*id),
            Some(Seen::Twice) => Err(resolve_err(format!("query label `{label}` is ambiguous"))),
            Some(Seen::Never) | None => Err(resolve_err(format!("unknown query label `{label}`"))),
        }
    }
}

/// Resolves one epoch's name-based operations into a concrete
/// [`EpochDelta`] against the live (pre-delta) instance.
///
/// Photo names and query labels must be unique in `inst` *if referenced*;
/// an ambiguous or unknown name yields [`DatasetError::TraceResolve`].
/// `AddQuery` members may name photos added earlier in the same epoch
/// (resolved to [`MemberRef::New`]); everything else resolves to pre-delta
/// ids exactly as [`EpochDelta`] expects.
///
/// No archive-sized map is built: only the names `ops` reference enter a
/// table, as small as the epoch, and one pass over the instance's photo
/// names and query labels looks each of them up in it.
pub fn resolve_epoch(ops: &[TraceOp], inst: &Instance) -> Result<EpochDelta> {
    resolve_with(ops, &NameMaps::referenced(ops, inst))
}

/// The op loop of [`resolve_epoch`] over a prepared name table.
fn resolve_with(ops: &[TraceOp], maps: &NameMaps<'_>) -> Result<EpochDelta> {
    let mut delta = EpochDelta::default();
    // Photos added earlier in this same epoch, by name → add_photos index.
    let mut fresh: HashMap<&str, usize> = HashMap::new();
    for op in ops {
        match op {
            TraceOp::AddPhoto {
                name,
                cost,
                required,
            } => {
                if fresh.insert(name.as_str(), delta.add_photos.len()).is_some() {
                    return Err(resolve_err(format!(
                        "photo name `{name}` added twice in one epoch"
                    )));
                }
                delta.add_photos.push(PhotoAdd {
                    name: name.clone(),
                    cost: *cost,
                    required: *required,
                });
            }
            TraceOp::RemovePhoto { name } => delta.remove_photos.push(maps.photo(name)?),
            TraceOp::AddQuery {
                label,
                weight,
                members,
                pairs,
            } => {
                let mut refs = Vec::with_capacity(members.len());
                let mut relevance = Vec::with_capacity(members.len());
                for (name, rel) in members {
                    let m = match fresh.get(name.as_str()) {
                        Some(&k) => MemberRef::New(k),
                        None => MemberRef::Existing(maps.photo(name)?),
                    };
                    refs.push(m);
                    relevance.push(*rel);
                }
                delta.add_queries.push(QueryAdd {
                    label: label.clone(),
                    weight: *weight,
                    members: refs,
                    relevance,
                    pairs: pairs.clone(),
                });
            }
            TraceOp::RetireQuery { label } => delta.retire_queries.push(maps.subset(label)?),
            TraceOp::Require { name } => delta.require.push(maps.photo(name)?),
            TraceOp::Unrequire { name } => delta.unrequire.push(maps.photo(name)?),
            TraceOp::Budget { bytes } => delta.set_budget = Some(*bytes),
        }
    }
    Ok(delta)
}

/// Strips tabs and newlines from a name before it enters the tab-separated
/// format (mirrors the label sanitization in [`crate::io::to_text`]).
fn sanitize(s: &str) -> String {
    s.replace(['\t', '\n', '\r'], " ")
}

/// Serializes a trace to the `# phocus-trace v1` text format. Names
/// containing tabs or newlines are sanitized to spaces (the generator never
/// produces such names).
pub fn trace_to_text(trace: &ChurnTrace) -> String {
    let mut out = String::new();
    out.push_str("# phocus-trace v1\n");
    let _ = writeln!(out, "name\t{}", sanitize(&trace.name));
    for ops in &trace.epochs {
        out.push_str("epoch\n");
        for op in ops {
            match op {
                TraceOp::AddPhoto {
                    name,
                    cost,
                    required,
                } => {
                    let _ = writeln!(
                        out,
                        "add_photo\t{}\t{cost}\t{}",
                        sanitize(name),
                        u8::from(*required)
                    );
                }
                TraceOp::RemovePhoto { name } => {
                    let _ = writeln!(out, "remove_photo\t{}", sanitize(name));
                }
                TraceOp::AddQuery {
                    label,
                    weight,
                    members,
                    pairs,
                } => {
                    let _ = write!(
                        out,
                        "add_query\t{}\t{weight}\t{}",
                        sanitize(label),
                        members.len()
                    );
                    for (name, rel) in members {
                        let _ = write!(out, "\t{}\t{rel}", sanitize(name));
                    }
                    let _ = write!(out, "\t{}", pairs.len());
                    for (i, j, s) in pairs {
                        let _ = write!(out, "\t{i}\t{j}\t{s}");
                    }
                    out.push('\n');
                }
                TraceOp::RetireQuery { label } => {
                    let _ = writeln!(out, "retire_query\t{}", sanitize(label));
                }
                TraceOp::Require { name } => {
                    let _ = writeln!(out, "require\t{}", sanitize(name));
                }
                TraceOp::Unrequire { name } => {
                    let _ = writeln!(out, "unrequire\t{}", sanitize(name));
                }
                TraceOp::Budget { bytes } => {
                    let _ = writeln!(out, "budget\t{bytes}");
                }
            }
        }
    }
    out
}

fn parse_u64(line: usize, field: &str, what: &str) -> Result<u64> {
    field
        .parse::<u64>()
        .map_err(|_| err(line, format!("bad {what} `{field}`")))
}

fn parse_u32(line: usize, field: &str, what: &str) -> Result<u32> {
    field
        .parse::<u32>()
        .map_err(|_| err(line, format!("bad {what} `{field}`")))
}

fn parse_f64(line: usize, field: &str, what: &str) -> Result<f64> {
    let v = field
        .parse::<f64>()
        .map_err(|_| err(line, format!("bad {what} `{field}`")))?;
    if !v.is_finite() {
        return Err(err(line, format!("non-finite {what} `{field}`")));
    }
    Ok(v)
}

fn parse_usize(line: usize, field: &str, what: &str) -> Result<usize> {
    field
        .parse::<usize>()
        .map_err(|_| err(line, format!("bad {what} `{field}`")))
}

/// Parses the `# phocus-trace v1` text format. Never panics on arbitrary
/// input; every malformed line is reported with its 1-based line number.
pub fn trace_from_text(text: &str) -> Result<ChurnTrace> {
    let mut trace = ChurnTrace::default();
    let mut saw_header = false;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim_end_matches('\r');
        if line.is_empty() {
            continue;
        }
        if line.starts_with('#') {
            if line.trim() == "# phocus-trace v1" {
                saw_header = true;
            }
            continue;
        }
        if !saw_header {
            return Err(err(lineno, "missing `# phocus-trace v1` header"));
        }
        let fields: Vec<&str> = line.split('\t').collect();
        let arity = |want: usize| -> Result<()> {
            if fields.len() != want {
                return Err(err(
                    lineno,
                    format!(
                        "`{}` expects {} field(s), got {}",
                        fields[0],
                        want - 1,
                        fields.len() - 1
                    ),
                ));
            }
            Ok(())
        };
        match fields[0] {
            "name" => {
                arity(2)?;
                trace.name = fields[1].to_string();
            }
            "epoch" => {
                arity(1)?;
                trace.epochs.push(Vec::new());
            }
            tag => {
                let Some(ops) = trace.epochs.last_mut() else {
                    return Err(err(lineno, format!("`{tag}` before the first `epoch`")));
                };
                match tag {
                    "add_photo" => {
                        arity(4)?;
                        let cost = parse_u64(lineno, fields[2], "cost")?;
                        let required = match fields[3] {
                            "0" => false,
                            "1" => true,
                            other => {
                                return Err(err(
                                    lineno,
                                    format!("bad required flag `{other}` (want 0 or 1)"),
                                ))
                            }
                        };
                        ops.push(TraceOp::AddPhoto {
                            name: fields[1].to_string(),
                            cost,
                            required,
                        });
                    }
                    "remove_photo" => {
                        arity(2)?;
                        ops.push(TraceOp::RemovePhoto {
                            name: fields[1].to_string(),
                        });
                    }
                    "add_query" => {
                        if fields.len() < 4 {
                            return Err(err(lineno, "truncated `add_query`"));
                        }
                        let weight = parse_f64(lineno, fields[2], "weight")?;
                        let m = parse_usize(lineno, fields[3], "member count")?;
                        let members_end = 4usize
                            .checked_add(m.checked_mul(2).ok_or_else(|| {
                                err(lineno, "member count overflows")
                            })?)
                            .ok_or_else(|| err(lineno, "member count overflows"))?;
                        if fields.len() < members_end + 1 {
                            return Err(err(lineno, "truncated `add_query` member list"));
                        }
                        let mut members = Vec::with_capacity(m);
                        for k in 0..m {
                            let name = fields[4 + 2 * k].to_string();
                            let rel = parse_f64(lineno, fields[5 + 2 * k], "relevance")?;
                            members.push((name, rel));
                        }
                        let p = parse_usize(lineno, fields[members_end], "pair count")?;
                        let total = members_end
                            .checked_add(1)
                            .and_then(|v| v.checked_add(p.checked_mul(3)?))
                            .ok_or_else(|| err(lineno, "pair count overflows"))?;
                        if fields.len() != total {
                            return Err(err(
                                lineno,
                                format!(
                                    "`add_query` expects {} field(s), got {}",
                                    total - 1,
                                    fields.len() - 1
                                ),
                            ));
                        }
                        let mut pairs = Vec::with_capacity(p);
                        for k in 0..p {
                            let at = members_end + 1 + 3 * k;
                            let i = parse_u32(lineno, fields[at], "pair index")?;
                            let j = parse_u32(lineno, fields[at + 1], "pair index")?;
                            let s = parse_f64(lineno, fields[at + 2], "pair similarity")?;
                            pairs.push((i, j, s));
                        }
                        ops.push(TraceOp::AddQuery {
                            label: fields[1].to_string(),
                            weight,
                            members,
                            pairs,
                        });
                    }
                    "retire_query" => {
                        arity(2)?;
                        ops.push(TraceOp::RetireQuery {
                            label: fields[1].to_string(),
                        });
                    }
                    "require" => {
                        arity(2)?;
                        ops.push(TraceOp::Require {
                            name: fields[1].to_string(),
                        });
                    }
                    "unrequire" => {
                        arity(2)?;
                        ops.push(TraceOp::Unrequire {
                            name: fields[1].to_string(),
                        });
                    }
                    "budget" => {
                        arity(2)?;
                        ops.push(TraceOp::Budget {
                            bytes: parse_u64(lineno, fields[1], "budget")?,
                        });
                    }
                    other => return Err(err(lineno, format!("unknown record `{other}`"))),
                }
            }
        }
    }
    if !saw_header && !text.lines().any(|l| !l.trim().is_empty()) {
        return Err(err(1, "empty trace"));
    }
    if !saw_header {
        return Err(err(1, "missing `# phocus-trace v1` header"));
    }
    Ok(trace)
}

/// Generates a churn trace by evolving `base` for `cfg.epochs` epochs.
///
/// Every epoch is resolved and applied internally (via
/// [`par_core::apply_delta`]), so the returned trace is guaranteed to replay
/// cleanly over the whole chain: the generator can never emit an operation
/// that references a photo removed in an earlier epoch or drives the budget
/// below the required-set cost. The trace is a pure function of `(base,
/// cfg)` — same inputs, same bytes.
///
/// Epoch shape (in application order):
/// 1. removals — `⌊n · removal_fraction⌋` random *non-required* photos
///    (never below 2 survivors);
/// 2. arrivals — `~arrivals_mean` photos with log-normal costs; each is
///    attached with probability `attach_prob` to 1–2 existing photos via a
///    fresh drift query (Zipf-skewed towards old photos), otherwise it
///    arrives as an isolated singleton;
/// 3. query drift — `~drift_mean` standalone queries over existing photos;
/// 4. with probability `retire_prob`, one random query retires;
/// 5. with probability `flip_prob`, one photo's required flag flips;
/// 6. if `budget_wobble > 0`, the budget moves by a uniform relative factor
///    in `±budget_wobble`, clamped to the post-churn required cost.
pub fn generate_churn(base: &Instance, cfg: &ChurnConfig) -> Result<ChurnTrace> {
    cfg.validate()?;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut inst = base.clone();
    let mut trace = ChurnTrace {
        name: format!("churn-seed{}", cfg.seed),
        epochs: Vec::with_capacity(cfg.epochs),
    };
    for e in 0..cfg.epochs {
        let mut ops: Vec<TraceOp> = Vec::new();
        let n = inst.num_photos();

        // 1. Removals: random non-required photos, keeping ≥ 2 survivors.
        let mut removed = vec![false; n];
        let mut candidates: Vec<PhotoId> = inst
            .photos()
            .iter()
            .map(|p| p.id)
            .filter(|&p| !inst.is_required(p))
            .collect();
        let want = ((n as f64) * cfg.removal_fraction) as usize;
        let cap = n.saturating_sub(2);
        for _ in 0..want.min(cap).min(candidates.len()) {
            let at = rng.gen_range(0..candidates.len());
            let p = candidates.swap_remove(at);
            removed[p.index()] = true;
            ops.push(TraceOp::RemovePhoto {
                name: inst.photo(p).name.to_string(),
            });
        }

        // Surviving photos, oldest first: the Zipf attachment ranks them so
        // old photos stay popular (stable components) while the tail churns.
        let alive: Vec<PhotoId> = inst
            .photos()
            .iter()
            .map(|p| p.id)
            .filter(|p| !removed[p.index()])
            .collect();
        let zipf = if alive.is_empty() {
            None
        } else {
            Some(Zipf::new(alive.len(), cfg.zipf_exponent)?)
        };
        let pick_alive = |rng: &mut StdRng| -> Option<PhotoId> {
            zipf.as_ref().map(|z| alive[z.sample(rng)])
        };

        // 2. Arrivals, each optionally attached via a fresh drift query.
        let arrivals = sample_count(&mut rng, cfg.arrivals_mean);
        for i in 0..arrivals {
            let name = format!("churn-e{e:03}-p{i:02}");
            let cost = lognormal_cost(&mut rng);
            ops.push(TraceOp::AddPhoto {
                name: name.clone(),
                cost,
                required: false,
            });
            if rng.gen::<f64>() < cfg.attach_prob {
                if let Some(anchor) = pick_alive(&mut rng) {
                    let anchor_name = inst.photo(anchor).name.to_string();
                    let weight = 0.5 + 2.5 * rng.gen::<f64>();
                    let sim = 0.3 + 0.6 * rng.gen::<f64>();
                    ops.push(TraceOp::AddQuery {
                        label: format!("drift-e{e:03}-a{i:02}"),
                        weight,
                        members: vec![(name, 1.0), (anchor_name, 1.0)],
                        pairs: vec![(0, 1, sim)],
                    });
                }
            }
        }

        // 3. Standalone drift queries over surviving photos.
        let drifts = sample_count(&mut rng, cfg.drift_mean);
        for d in 0..drifts {
            let (Some(a), Some(b)) = (pick_alive(&mut rng), pick_alive(&mut rng)) else {
                break;
            };
            if a == b {
                continue;
            }
            let weight = 0.5 + 2.5 * rng.gen::<f64>();
            let sim = 0.2 + 0.7 * rng.gen::<f64>();
            ops.push(TraceOp::AddQuery {
                label: format!("drift-e{e:03}-q{d:02}"),
                weight,
                members: vec![
                    (inst.photo(a).name.to_string(), 0.5 + rng.gen::<f64>()),
                    (inst.photo(b).name.to_string(), 0.5 + rng.gen::<f64>()),
                ],
                pairs: vec![(0, 1, sim)],
            });
        }

        // 4. Retirement: one random query whose label is unambiguous.
        if inst.num_subsets() > 1 && rng.gen::<f64>() < cfg.retire_prob {
            let q = SubsetId(rng.gen_range(0..inst.num_subsets()) as u32);
            let label = &inst.subset(q).label;
            let unique = inst.subsets().iter().filter(|s| &s.label == label).count() == 1;
            if unique {
                ops.push(TraceOp::RetireQuery {
                    label: label.to_string(),
                });
            }
        }

        // Required-cost bookkeeping for the flip and the budget clamp:
        // removals only ever touch non-required photos, so the required cost
        // changes solely through the flip below.
        let mut required_cost = inst.required_cost();

        // 5. Required-flag flip.
        if cfg.flip_prob > 0.0 && rng.gen::<f64>() < cfg.flip_prob {
            if let Some(p) = pick_alive(&mut rng) {
                let name = inst.photo(p).name.to_string();
                if inst.is_required(p) {
                    required_cost = required_cost.saturating_sub(inst.cost(p));
                    ops.push(TraceOp::Unrequire { name });
                } else if required_cost.saturating_add(inst.cost(p)) <= inst.budget() {
                    required_cost = required_cost.saturating_add(inst.cost(p));
                    ops.push(TraceOp::Require { name });
                }
            }
        }

        // 6. Budget wobble, clamped so the required set always fits.
        if cfg.budget_wobble > 0.0 {
            let factor = 1.0 + cfg.budget_wobble * (2.0 * rng.gen::<f64>() - 1.0);
            let wobbled = (inst.budget() as f64 * factor) as u64;
            ops.push(TraceOp::Budget {
                bytes: wobbled.max(required_cost).max(1),
            });
        }

        // Advance the live instance; the generator constructs only valid
        // operations, so a failure here is a bug worth surfacing verbatim.
        let delta = resolve_epoch(&ops, &inst)?;
        let applied = par_core::apply_delta(&inst, &delta).map_err(|apply_err| {
            DatasetError::InvalidUniverse(format!(
                "generated epoch {e} does not apply: {apply_err}"
            ))
        })?;
        inst = applied.instance;
        trace.epochs.push(ops);
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use par_core::fixtures::{random_instance, RandomInstanceConfig, SplitMix64};

    fn base(seed: u64) -> Instance {
        random_instance(
            seed,
            &RandomInstanceConfig {
                photos: 60,
                subsets: 18,
                subset_size: (2, 6),
                cost_range: (100, 900),
                budget_fraction: 0.5,
                required_prob: 0.05,
            },
        )
    }

    fn busy_config() -> ChurnConfig {
        ChurnConfig {
            epochs: 10,
            removal_fraction: 0.05,
            arrivals_mean: 2.5,
            drift_mean: 1.5,
            budget_wobble: 0.15,
            ..ChurnConfig::default()
        }
    }

    #[test]
    fn generated_trace_replays_over_the_whole_chain() {
        let inst0 = base(3);
        let trace = generate_churn(&inst0, &busy_config()).unwrap();
        assert_eq!(trace.epochs.len(), 10);
        let mut inst = inst0;
        let mut total_ops = 0;
        for ops in &trace.epochs {
            total_ops += ops.len();
            let delta = resolve_epoch(ops, &inst).unwrap();
            inst = par_core::apply_delta(&inst, &delta).unwrap().instance;
        }
        assert!(total_ops > 0, "trace generated no churn at all");
        assert!(inst.num_photos() >= 2);
    }

    #[test]
    fn generation_is_deterministic() {
        let inst = base(5);
        let cfg = busy_config();
        let a = generate_churn(&inst, &cfg).unwrap();
        let b = generate_churn(&inst, &cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(trace_to_text(&a), trace_to_text(&b));
        let other = generate_churn(
            &inst,
            &ChurnConfig {
                seed: cfg.seed + 1,
                ..cfg
            },
        )
        .unwrap();
        assert_ne!(trace_to_text(&a), trace_to_text(&other));
    }

    #[test]
    fn text_roundtrip_is_lossless() {
        let inst = base(7);
        let trace = generate_churn(&inst, &busy_config()).unwrap();
        let text = trace_to_text(&trace);
        let back = trace_from_text(&text).unwrap();
        assert_eq!(trace, back);
        assert_eq!(trace_to_text(&back), text);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        let cases = [
            ("", "empty trace"),
            ("add_photo\tx\t1\t0\n", "header"),
            ("# phocus-trace v1\nadd_photo\tx\t1\t0\n", "before the first"),
            ("# phocus-trace v1\nepoch\nadd_photo\tx\tbad\t0\n", "bad cost"),
            ("# phocus-trace v1\nepoch\nadd_photo\tx\t1\t2\n", "required flag"),
            ("# phocus-trace v1\nepoch\nbudget\t-3\n", "bad budget"),
            ("# phocus-trace v1\nepoch\nwat\tx\n", "unknown record"),
            (
                "# phocus-trace v1\nepoch\nadd_query\tq\t1.0\t2\ta\t1.0\n",
                "truncated",
            ),
            (
                "# phocus-trace v1\nepoch\nadd_query\tq\t1.0\t1\ta\t1.0\t1\t0\t1\n",
                "expects",
            ),
        ];
        for (text, needle) in cases {
            let got = trace_from_text(text).unwrap_err().to_string();
            assert!(
                got.contains(needle),
                "for {text:?}: expected `{needle}` in `{got}`"
            );
        }
    }

    #[test]
    fn resolver_reports_unknown_and_ambiguous_names() {
        let inst = base(11);
        let missing = resolve_epoch(
            &[TraceOp::RemovePhoto {
                name: "no-such-photo".into(),
            }],
            &inst,
        );
        assert!(matches!(missing, Err(DatasetError::TraceResolve(_))));
        let twice = resolve_epoch(
            &[
                TraceOp::AddPhoto {
                    name: "dup".into(),
                    cost: 10,
                    required: false,
                },
                TraceOp::AddPhoto {
                    name: "dup".into(),
                    cost: 20,
                    required: false,
                },
            ],
            &inst,
        );
        assert!(matches!(twice, Err(DatasetError::TraceResolve(_))));
    }

    #[test]
    fn same_epoch_arrivals_resolve_to_new_members() {
        let inst = base(13);
        let anchor = inst.photo(PhotoId(0)).name.clone();
        let ops = vec![
            TraceOp::AddPhoto {
                name: "fresh".into(),
                cost: 123,
                required: false,
            },
            TraceOp::AddQuery {
                label: "link".into(),
                weight: 1.0,
                members: vec![("fresh".into(), 1.0), (anchor.to_string(), 1.0)],
                pairs: vec![(0, 1, 0.5)],
            },
        ];
        let delta = resolve_epoch(&ops, &inst).unwrap();
        assert_eq!(delta.add_queries[0].members[0], MemberRef::New(0));
        assert_eq!(
            delta.add_queries[0].members[1],
            MemberRef::Existing(PhotoId(0))
        );
        // And the delta actually applies.
        par_core::apply_delta(&inst, &delta).unwrap();
    }

    #[test]
    fn pair_indices_beyond_u32_are_rejected_not_wrapped() {
        let trace = |i: &str, j: &str| {
            format!(
                "# phocus-trace v1\nepoch\nadd_query\tq\t1.0\t2\ta\t1.0\tb\t1.0\t1\t{i}\t{j}\t0.9\n"
            )
        };
        for (i, j) in [("4294967296", "1"), ("0", "4294967297"), ("-1", "1")] {
            let got = trace_from_text(&trace(i, j)).unwrap_err().to_string();
            let bad = if i.starts_with('0') { j } else { i };
            assert!(got.contains(&format!("bad pair index `{bad}`")), "{got}");
            assert!(got.contains("line 3"), "{got}");
        }
        // In-range indices parse; whether they fit the member list is
        // checked when the delta is applied.
        for (i, want) in [("4294967295", u32::MAX), ("2", 2)] {
            let parsed = trace_from_text(&trace(i, "1")).unwrap();
            let TraceOp::AddQuery { pairs, .. } = &parsed.epochs[0][0] else {
                panic!("expected an add_query");
            };
            assert_eq!(pairs, &vec![(want, 1, 0.9)]);
        }
    }

    /// The full-archive name table `resolve_epoch` built before it looked
    /// up only the names an epoch references: every photo name and query
    /// label of the instance. The reference the referenced-names table is
    /// checked against.
    fn full_maps(inst: &Instance) -> NameMaps<'_> {
        let mut photos: HashMap<&str, Seen<PhotoId>> = HashMap::new();
        for p in inst.photos() {
            photos
                .entry(&*p.name)
                .and_modify(|e| *e = Seen::Twice)
                .or_insert(Seen::Once(p.id));
        }
        let mut subsets: HashMap<&str, Seen<SubsetId>> = HashMap::new();
        for s in inst.subsets() {
            subsets
                .entry(&*s.label)
                .and_modify(|e| *e = Seen::Twice)
                .or_insert(Seen::Once(s.id));
        }
        NameMaps { photos, subsets }
    }

    /// Resolves `ops` against `inst` with both name tables and asserts the
    /// same delta or the same error text.
    fn resolvers_agree(ops: &[TraceOp], inst: &Instance, what: &str) -> Result<EpochDelta> {
        let got = resolve_epoch(ops, inst);
        let want = resolve_with(ops, &full_maps(inst));
        match (&got, &want) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{what}"),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{what}"),
            _ => panic!("{what}: resolvers disagree: {got:?} vs {want:?}"),
        }
        got
    }

    /// `inst` plus duplicated names: a second photo under the names of
    /// photos 0 and n/2, a second query under the label of query 0, and two
    /// photos named `twin` in two queries labeled `twin-q`, which generated
    /// epochs never reference.
    fn with_twins(inst: &Instance) -> Instance {
        let n = inst.num_photos();
        let photo = |name: &str| PhotoAdd {
            name: name.to_string(),
            cost: 100,
            required: false,
        };
        let query = |label: &str, k: usize| QueryAdd {
            label: label.to_string(),
            weight: 1.0,
            members: vec![MemberRef::New(k)],
            relevance: vec![],
            pairs: vec![],
        };
        let delta = EpochDelta {
            add_photos: vec![
                photo(&inst.photo(PhotoId(0)).name),
                photo(&inst.photo(PhotoId((n / 2) as u32)).name),
                photo("twin"),
                photo("twin"),
            ],
            add_queries: vec![
                query(&inst.subset(SubsetId(0)).label, 0),
                query("twin-q", 2),
                query("twin-q", 3),
            ],
            ..EpochDelta::default()
        };
        par_core::apply_delta(inst, &delta).unwrap().instance
    }

    /// Inserts one injected case into `ops` at a random position: an
    /// unknown, duplicated, retired or same-epoch name.
    fn inject(
        ops: &mut Vec<TraceOp>,
        rng: &mut SplitMix64,
        inst: &Instance,
        retired: &[String],
        k: usize,
    ) {
        let n = inst.num_photos();
        let any_photo = inst.photo(PhotoId(rng.next_below(n) as u32)).name.to_string();
        let twinned = inst.photo(PhotoId(0)).name.to_string();
        let fresh = format!("fresh-{k}");
        let query = |label: String, members: Vec<&str>| TraceOp::AddQuery {
            label,
            weight: 1.5,
            members: members.into_iter().map(|m| (m.to_string(), 1.0)).collect(),
            pairs: vec![(0, 1, 0.5)],
        };
        let add = |name: &str| TraceOp::AddPhoto {
            name: name.to_string(),
            cost: 321,
            required: false,
        };
        let case: Vec<TraceOp> = match rng.next_below(11) {
            0 => vec![TraceOp::RemovePhoto {
                name: "no-such-photo".into(),
            }],
            1 => vec![TraceOp::Require { name: twinned }],
            2 => vec![TraceOp::Unrequire { name: "twin".into() }],
            // Added earlier in the epoch, then named by a query.
            3 => vec![add(&fresh), query(format!("inj-{k}"), vec![&fresh, &any_photo])],
            // A fresh photo shadowing an existing name.
            4 => vec![add(&any_photo), query(format!("inj-{k}"), vec![&any_photo, &twinned])],
            5 => vec![query(format!("inj-{k}"), vec![&any_photo, "ghost"])],
            // Named by a query before it is added.
            6 => vec![query(format!("inj-{k}"), vec![&fresh, &any_photo]), add(&fresh)],
            7 => vec![TraceOp::RetireQuery {
                label: retired.last().cloned().unwrap_or_else(|| "never-was".into()),
            }],
            8 => vec![TraceOp::RetireQuery {
                label: "twin-q".into(),
            }],
            9 => vec![TraceOp::RetireQuery {
                label: inst.subset(SubsetId(0)).label.to_string(),
            }],
            _ => vec![TraceOp::RemovePhoto { name: any_photo }],
        };
        let at = rng.next_below(ops.len() + 1);
        ops.splice(at..at, case);
    }

    /// Resolving only the referenced names gives exactly what the
    /// full-archive table gave — the same delta or the same error text —
    /// over generated churn chains, with and without duplicated names, and
    /// with unknown, ambiguous, retired and same-epoch names injected.
    #[test]
    fn referenced_names_resolve_like_the_full_archive_table() {
        let (mut ok, mut unknown, mut ambiguous) = (0, 0, 0);
        for seed in 0..6u64 {
            let mut rng = SplitMix64::new(seed ^ 0x5EED_0000);
            let mut inst = base(seed);
            let trace = generate_churn(&inst, &ChurnConfig { seed, ..busy_config() }).unwrap();
            let mut retired: Vec<String> = Vec::new();
            for (e, ops) in trace.epochs.iter().enumerate() {
                let twins = with_twins(&inst);
                let plain = resolvers_agree(ops, &inst, &format!("seed {seed} epoch {e}")).unwrap();
                let mut outcomes =
                    vec![resolvers_agree(ops, &twins, "generated epoch, twinned names")];
                for k in 0..8 {
                    let mut mutated = ops.clone();
                    for _ in 0..1 + rng.next_below(3) {
                        inject(&mut mutated, &mut rng, &inst, &retired, k);
                    }
                    let what = format!("seed {seed} epoch {e} variant {k}: {mutated:?}");
                    outcomes.push(resolvers_agree(&mutated, &inst, &what));
                    outcomes.push(resolvers_agree(&mutated, &twins, &what));
                }
                for outcome in outcomes {
                    match outcome {
                        Ok(_) => ok += 1,
                        Err(e) if e.to_string().contains("ambiguous") => ambiguous += 1,
                        Err(e) if e.to_string().contains("unknown") => unknown += 1,
                        Err(e) if e.to_string().contains("added twice") => {}
                        Err(e) => panic!("unexpected resolve error: {e}"),
                    }
                }
                retired.extend(ops.iter().filter_map(|op| match op {
                    TraceOp::RetireQuery { label } => Some(label.clone()),
                    _ => None,
                }));
                inst = par_core::apply_delta(&inst, &plain).unwrap().instance;
            }
        }
        assert!(
            ok > 0 && unknown > 0 && ambiguous > 0,
            "ok={ok} unknown={unknown} ambiguous={ambiguous}"
        );
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let inst = base(17);
        for bad in [
            ChurnConfig {
                removal_fraction: 1.5,
                ..ChurnConfig::default()
            },
            ChurnConfig {
                arrivals_mean: f64::NAN,
                ..ChurnConfig::default()
            },
            ChurnConfig {
                budget_wobble: 1.0,
                ..ChurnConfig::default()
            },
        ] {
            assert!(generate_churn(&inst, &bad).is_err());
        }
    }
}
