//! In-memory spans around the benchmark's calls into each library layer.
//!
//! Every traced request opens one root span on the client thread; each call
//! into a layer's public function becomes a leaf span under it, possibly on
//! a pool worker. Spans are kept in memory and written out only when the
//! run ends, so tracing does no I/O while a request is timed.
//!
//! Attribution is by wall time: each instant of a request's root span is
//! split evenly among the leaf spans active at that instant, and an instant
//! with no active leaf is charged to `bench.unattributed`. Layer shares plus
//! the unattributed share therefore sum to the traced request wall exactly,
//! at any thread count. A layer's `busy` time is the plain sum of its span
//! durations (thread time, so it can exceed the wall when workers overlap).

use std::io::Write;
use std::time::Instant;

/// Where a layer sits on a request's path. The per-layer metrics of
/// `BENCHMARK.json` are reported per role, so every workload reports every
/// metric; the per-layer breakdown by name is printed beside them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Bringing the request's input into memory (parse, pack read, trace).
    Load,
    /// Turning the input into a solvable instance (representation, labels,
    /// pack decode, delta apply).
    Prepare,
    /// Solving and certifying.
    Solve,
}

/// The layer names the benchmark times, each with its role.
pub const LAYERS: &[(&str, Role)] = &[
    ("datasets.io", Role::Load),
    ("phocus.catalog", Role::Load),
    ("datasets.churn", Role::Load),
    ("phocus.representation", Role::Prepare),
    ("core.components", Role::Prepare),
    ("core.pack", Role::Prepare),
    ("phocus.session.apply", Role::Prepare),
    ("algo.sharded", Role::Solve),
    ("algo.online_bound", Role::Solve),
    ("sparse.bound", Role::Solve),
    ("phocus.session.resolve", Role::Solve),
];

/// The role of a layer name from [`LAYERS`].
pub fn role_of(layer: &str) -> Role {
    LAYERS
        .iter()
        .find(|(name, _)| *name == layer)
        .map(|&(_, role)| role)
        .unwrap_or_else(|| panic!("layer {layer} is not listed in LAYERS"))
}

/// A monotonic clock shared by the client and the pool workers.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// Nanoseconds since the clock started.
    pub fn now(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` as a leaf span of `layer`, appending the span to `out`.
    pub fn span<T>(&self, out: &mut Vec<Leaf>, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let value = f();
        out.push(Leaf {
            layer,
            start,
            end: self.now(),
        });
        value
    }
}

/// One call into a layer, recorded by whichever thread made it.
#[derive(Debug, Clone, Copy)]
pub struct Leaf {
    /// Layer name from [`LAYERS`].
    pub layer: &'static str,
    /// Start, in [`Clock`] nanoseconds.
    pub start: u64,
    /// End, in [`Clock`] nanoseconds.
    pub end: u64,
}

/// One traced request: its root interval and the leaf spans under it.
#[derive(Debug, Clone)]
struct Request {
    id: usize,
    start: u64,
    end: u64,
    leaves: Vec<Leaf>,
}

/// The spans of a traced run.
#[derive(Debug)]
pub struct Tracer {
    clock: Clock,
    requests: Vec<Request>,
}

/// Per-layer totals of a traced run.
#[derive(Debug, Clone)]
pub struct LayerTotals {
    /// Layer name.
    pub layer: &'static str,
    /// Number of spans.
    pub calls: u64,
    /// Summed span durations, in seconds.
    pub busy_s: f64,
    /// Request wall attributed to this layer, in seconds.
    pub wall_s: f64,
}

/// The attribution of a traced run's request wall.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Traced requests.
    pub requests: usize,
    /// Summed root-span durations, in seconds.
    pub wall_s: f64,
    /// Wall with no layer span active, in seconds.
    pub unattributed_s: f64,
    /// Layers with at least one span, by attributed wall, largest first.
    pub layers: Vec<LayerTotals>,
}

impl Profile {
    /// Wall attributed to the layers of `role`, in seconds.
    pub fn role_wall_s(&self, role: Role) -> f64 {
        self.layers
            .iter()
            .filter(|l| role_of(l.layer) == role)
            .map(|l| l.wall_s)
            .sum()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            clock: Clock(Instant::now()),
            requests: Vec::new(),
        }
    }
}

impl Tracer {
    /// The clock leaf spans must be recorded with.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Records request `id`, which ran from `start` to now with `leaves`.
    pub fn record(&mut self, id: usize, start: u64, leaves: Vec<Leaf>) {
        let end = self.clock.now();
        self.requests.push(Request {
            id,
            start,
            end,
            leaves,
        });
    }

    /// Attributes the request wall to the layers.
    pub fn profile(&self) -> Profile {
        let mut totals: Vec<LayerTotals> = Vec::new();
        let mut wall_ns = 0u64;
        let mut unattributed_ns = 0.0f64;
        for r in &self.requests {
            wall_ns += r.end - r.start;
            unattributed_ns += attribute(r, &mut totals);
        }
        totals.sort_by(|a, b| b.wall_s.total_cmp(&a.wall_s).then(a.layer.cmp(b.layer)));
        Profile {
            requests: self.requests.len(),
            wall_s: wall_ns as f64 * 1e-9,
            unattributed_s: unattributed_ns * 1e-9,
            layers: totals,
        }
    }

    /// Writes every span as one JSON line: roots first in each request,
    /// each leaf naming its root as parent.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let mut id = 0usize;
        for r in &self.requests {
            let root = id;
            writeln!(
                out,
                "{{\"id\":{root},\"request\":{},\"layer\":\"request\",\"start_ns\":{},\"end_ns\":{},\"parent\":null}}",
                r.id, r.start, r.end
            )?;
            for leaf in &r.leaves {
                id += 1;
                writeln!(
                    out,
                    "{{\"id\":{id},\"request\":{},\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{root}}}",
                    r.id, leaf.layer, leaf.start, leaf.end
                )?;
            }
            id += 1;
        }
        Ok(())
    }
}

/// Splits one request's wall among its leaves; returns the unattributed
/// nanoseconds and adds the rest to `totals`.
fn attribute(r: &Request, totals: &mut Vec<LayerTotals>) -> f64 {
    let mut slots: Vec<usize> = Vec::with_capacity(r.leaves.len());
    for leaf in &r.leaves {
        let slot = match totals.iter().position(|t| t.layer == leaf.layer) {
            Some(i) => i,
            None => {
                totals.push(LayerTotals {
                    layer: leaf.layer,
                    calls: 0,
                    busy_s: 0.0,
                    wall_s: 0.0,
                });
                totals.len() - 1
            }
        };
        totals[slot].calls += 1;
        totals[slot].busy_s += (leaf.end - leaf.start) as f64 * 1e-9;
        slots.push(slot);
    }
    // Sweep the leaf boundaries, clamped to the root interval. Ends sort
    // before starts at the same instant, so touching spans never overlap.
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(2 * r.leaves.len());
    for (i, leaf) in r.leaves.iter().enumerate() {
        let start = leaf.start.clamp(r.start, r.end);
        let end = leaf.end.clamp(r.start, r.end);
        events.push((start, true, i));
        events.push((end, false, i));
    }
    events.sort_unstable();
    let mut active: Vec<usize> = Vec::new();
    let mut unattributed = 0.0f64;
    let mut prev = r.start;
    for (t, is_start, i) in events {
        let dt = (t - prev) as f64;
        if active.is_empty() {
            unattributed += dt;
        } else {
            let share = dt / active.len() as f64 * 1e-9;
            for &a in &active {
                totals[slots[a]].wall_s += share;
            }
        }
        prev = t;
        if is_start {
            active.push(i);
        } else if let Some(pos) = active.iter().position(|&a| a == i) {
            active.swap_remove(pos);
        }
    }
    unattributed + (r.end - prev) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(layer: &'static str, start: u64, end: u64) -> Leaf {
        Leaf { layer, start, end }
    }

    #[test]
    fn overlapping_leaves_split_the_wall_and_sum_to_it() {
        let r = Request {
            id: 0,
            start: 0,
            end: 100,
            leaves: vec![
                leaf("datasets.io", 0, 10),
                leaf("algo.sharded", 20, 80),
                leaf("phocus.representation", 40, 90),
            ],
        };
        let mut totals = Vec::new();
        let unattributed = attribute(&r, &mut totals);
        let by = |name: &str| {
            totals
                .iter()
                .find(|t| t.layer == name)
                .expect("layer")
                .wall_s
        };
        // 10..20 and 90..100 have no leaf.
        assert!((unattributed - 20.0).abs() < 1e-9);
        assert!((by("datasets.io") - 10e-9).abs() < 1e-18);
        // 20..40 alone, 40..80 shared by two, 80..90 representation alone.
        assert!((by("algo.sharded") - 40e-9).abs() < 1e-18);
        assert!((by("phocus.representation") - 30e-9).abs() < 1e-18);
        let sum: f64 = totals.iter().map(|t| t.wall_s).sum::<f64>() + unattributed * 1e-9;
        assert!((sum - 100e-9).abs() < 1e-18);
        let busy: f64 = totals.iter().map(|t| t.busy_s).sum();
        assert!((busy - 120e-9).abs() < 1e-18);
    }

    #[test]
    fn every_layer_has_a_role() {
        for (name, role) in LAYERS {
            assert_eq!(role_of(name), *role);
        }
    }
}
