//! The `fleet` workload: a sharded store of small documents driven by
//! many sessions.
//!
//! One generator walks the canonical op stream of a `FleetWorkload` and
//! submits each op to the writer lane owning its document on a
//! `ShardExecutor`, keeping at most one op in flight per session (a
//! closed loop per session). Latency runs from submission to
//! completion, so time spent queued behind a hot lane counts. Each
//! round builds a fresh store and replays one stream; its final
//! `Store::state_dump` must equal the sequential `replay_reference` of
//! the same stream. Rounds cycle through several streams generated from
//! the seed, and a run ends on a whole cycle, so one seed's hot-document
//! luck does not set the run's figures.

use std::sync::{Arc, Mutex};

use xupd_exec::ShardExecutor;
use xupd_framework::document::Document;
use xupd_schemes::prefix::qed::Qed;
use xupd_store::{replay_reference, Store, StoreConfig, StoreError};
use xupd_workloads::{docs, FleetConfig, FleetOpKind, FleetWorkload};
use xupd_xmldom::XmlTree;

use crate::doc::LabelSize;
use crate::docwork::XPATH;
use crate::mirror::BatchCounts;
use crate::phase::{Phase, Stop};
use crate::trace::{self, now_ns};
use crate::Size;

/// Worker threads behind the store's writer lanes.
pub const WORKERS: usize = 2;
/// Op streams a run cycles through.
const FLEET_VARIANTS: u64 = 8;
/// Nodes-per-document scale of the fleet documents (about 321 nodes).
const DOC_SCALE: usize = 40;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Open,
    Query,
    Update,
    Close,
}

/// One executed op, as the lane saw it.
#[derive(Debug, Clone, Copy)]
struct Rec {
    class: Class,
    lane: usize,
    submit_ns: u64,
    start_ns: u64,
    end_ns: u64,
    ok: bool,
    submitted: u64,
    relabeled: u64,
    overflow_events: u64,
}

/// The generator's place in the canonical stream: the next op to
/// submit, which sessions have an op in flight, and the session it is
/// blocked on (only that session's completion moves it on).
struct Gen {
    next: usize,
    in_flight: Vec<bool>,
    blocked_on: Option<usize>,
}

/// One round's replay: the stream, the store and its lanes, the
/// generator and the executed-op log.
struct Round {
    stream: Arc<FleetWorkload>,
    store: Arc<Store<Qed>>,
    exec: ShardExecutor,
    gen: Mutex<Gen>,
    recs: Mutex<Vec<Rec>>,
    batch_base: u64,
}

/// One generated op stream and what replaying it must produce.
struct Variant {
    ops: Arc<FleetWorkload>,
    reference: String,
    /// Documents the stream writes to.
    touched: Vec<bool>,
}

pub struct Fleet {
    variants: Vec<Variant>,
    trees: Vec<XmlTree>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("fleet bookkeeping lock poisoned by a panicking op")
}

fn build(trees: &[XmlTree]) -> Result<Store<Qed>, String> {
    Store::build(&Qed::new(), &StoreConfig::fleet(), trees).map_err(|e| e.to_string())
}

impl Fleet {
    pub fn new(seed: u64, size: &Size) -> Result<Fleet, String> {
        let config = |v: u64| {
            let seed = seed.wrapping_mul(FLEET_VARIANTS).wrapping_add(v);
            if size.tiny {
                FleetConfig::small(seed)
            } else {
                FleetConfig {
                    visits_per_session: size.fleet_visits,
                    ..FleetConfig::bench(seed)
                }
            }
        };
        let docs_n = config(0).docs as u64;
        let trees: Vec<XmlTree> = (0..docs_n)
            .map(|i| docs::xmark_like(seed.wrapping_mul(1000).wrapping_add(i), DOC_SCALE))
            .collect();
        let variants = (0..FLEET_VARIANTS)
            .map(|v| {
                let ops = FleetWorkload::generate(config(v));
                let reference_store = build(&trees)?;
                replay_reference(&reference_store, &ops);
                let mut touched = vec![false; trees.len()];
                for op in &ops.ops {
                    if matches!(op.kind, FleetOpKind::Update(_)) {
                        touched[op.doc as usize] = true;
                    }
                }
                Ok(Variant {
                    ops: Arc::new(ops),
                    reference: reference_store.state_dump(),
                    touched,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Fleet { variants, trees })
    }

    pub fn run(&self, stop: Stop) -> Phase {
        let mut ph = Phase::start(self.variants.len());
        ph.nodes
            .insert("fleet.docs".to_string(), self.trees.len() as u64);
        let initial: usize = self.trees.iter().map(XmlTree::len).sum();
        ph.nodes
            .insert("fleet.nodes.initial".to_string(), initial as u64);
        ph.nodes
            .insert("fleet.variants".to_string(), self.variants.len() as u64);
        let per_cycle: usize = self.variants.iter().map(|v| v.ops.ops.len()).sum();
        ph.nodes
            .insert("fleet.ops_per_cycle".to_string(), per_cycle as u64);
        let mut batch_base = 0u64;
        while ph.more(stop) {
            let variant = &self.variants[ph.rounds % self.variants.len()];
            let Some(store) = ph.setup(|| build(&self.trees)) else {
                break;
            };
            let store = Arc::new(store);
            let (recs, wall_ns) = replay(&variant.ops, &store, batch_base);
            batch_base += variant.ops.ops.len() as u64;
            ph.rounds += 1;
            absorb_round(&mut ph, &recs, wall_ns, store.shards());
            end_of_round(&mut ph, variant, &store);
        }
        ph
    }
}

/// Replay the canonical stream, one op in flight per session.
///
/// The generator is not a thread of its own: the main thread submits
/// until the generator blocks, and from then on the lane worker that
/// completes the op of the blocking session submits the next stretch
/// of the stream before it takes its next job. So only the lane workers
/// run during a round, and no submission waits for a sleeping generator
/// thread to be scheduled.
fn replay(
    stream: &Arc<FleetWorkload>,
    store: &Arc<Store<Qed>>,
    batch_base: u64,
) -> (Vec<Rec>, u64) {
    let round = Arc::new(Round {
        stream: Arc::clone(stream),
        store: Arc::clone(store),
        exec: ShardExecutor::with_workers(store.shards(), WORKERS),
        gen: Mutex::new(Gen {
            next: 0,
            in_flight: vec![false; stream.config.sessions],
            blocked_on: None,
        }),
        recs: Mutex::new(Vec::with_capacity(stream.ops.len())),
        batch_base,
    });
    let t0 = now_ns();
    Round::submit(&round, &mut lock(&round.gen));
    round.exec.drain();
    let wall = now_ns() - t0;
    // Every job, and with it every clone of the round, has finished, so
    // the lane workers are joined here and not on a worker.
    let round = Arc::into_inner(round).expect("a finished job still holds the round");
    drop(round.exec);
    let recs = round
        .recs
        .into_inner()
        .expect("fleet bookkeeping lock poisoned by a panicking op");
    (recs, wall)
}

impl Round {
    /// Submit ops in canonical order until one belongs to a session
    /// with an op in flight.
    fn submit(round: &Arc<Round>, gen: &mut Gen) {
        while let Some(op) = round.stream.ops.get(gen.next) {
            let session = op.session as usize;
            if gen.in_flight[session] {
                gen.blocked_on = Some(session);
                return;
            }
            gen.in_flight[session] = true;
            let i = gen.next;
            gen.next += 1;
            let lane = round.store.shard_of(op.doc);
            let job = Arc::clone(round);
            let submit_ns = now_ns();
            round
                .exec
                .submit(lane, move || Round::run(&job, i, lane, submit_ns));
        }
        gen.blocked_on = None;
    }

    /// Execute op `i` on its lane, log it, and move the generator on if
    /// it was waiting for this op's session.
    fn run(round: &Arc<Round>, i: usize, lane: usize, submit_ns: u64) {
        let start_ns = now_ns();
        let batch = round.batch_base + i as u64;
        trace::set_batch(batch);
        trace::record("store.queue_wait", submit_ns, start_ns, batch);
        let op = &round.stream.ops[i];
        let store = &round.store;
        let mut rec = Rec {
            class: Class::Open,
            lane,
            submit_ns,
            start_ns,
            end_ns: 0,
            ok: true,
            submitted: 0,
            relabeled: 0,
            overflow_events: 0,
        };
        let r: Result<(), StoreError> = match &op.kind {
            FleetOpKind::Open => {
                let _s = trace::span("store.open");
                store.open_doc(op.doc)
            }
            FleetOpKind::Query(class) => {
                rec.class = Class::Query;
                let _s = trace::span("store.serve_query");
                store.serve_query(op.doc, *class).map(|_| ())
            }
            FleetOpKind::Update(script) => {
                rec.class = Class::Update;
                rec.submitted = script.ops.len() as u64;
                let _s = trace::span("store.apply_script");
                store.apply_script(op.doc, script).map(|stats| {
                    rec.relabeled = stats.relabeled;
                    rec.overflow_events = stats.overflow_events;
                })
            }
            FleetOpKind::Close => {
                rec.class = Class::Close;
                let _s = trace::span("store.close");
                store.close_doc(op.doc)
            }
        };
        rec.ok = r.is_ok();
        rec.end_ns = now_ns();
        lock(&round.recs).push(rec);
        let session = op.session as usize;
        let mut gen = lock(&round.gen);
        gen.in_flight[session] = false;
        if gen.blocked_on == Some(session) {
            Round::submit(round, &mut gen);
        }
    }
}

fn absorb_round(ph: &mut Phase, recs: &[Rec], wall_ns: u64, lanes: usize) {
    let mut busy = vec![0u64; lanes];
    for r in recs {
        ph.attempted += 1;
        let service = r.end_ns - r.start_ns;
        busy[r.lane] += service;
        ph.lanes
            .queue_wait_us
            .push((r.start_ns - r.submit_ns) as f64 / 1e3);
        if !r.ok {
            ph.failed += 1;
            ph.first_error
                .get_or_insert_with(|| format!("{:?} op rejected", r.class));
            continue;
        }
        ph.timed_ok += 1;
        let latency = r.end_ns - r.submit_ns;
        match r.class {
            Class::Update => {
                ph.update_ms.push(latency as f64 / 1e6);
                ph.lanes.service_update_us.push(service as f64 / 1e3);
                ph.batches.push(BatchCounts {
                    submitted: r.submitted,
                    relabeled: r.relabeled,
                    overflow_events: r.overflow_events,
                    ..BatchCounts::default()
                });
            }
            Class::Query => {
                ph.query_us.push(latency as f64 / 1e3);
                ph.lanes.service_query_us.push(service as f64 / 1e3);
            }
            Class::Open | Class::Close => {}
        }
    }
    ph.timed_ns += wall_ns;
    let wall = wall_ns.max(1) as f64;
    let hot = busy.iter().copied().max().unwrap_or(0);
    ph.lanes.hot_lane_busy_frac.push(hot as f64 / wall);
    let total: u64 = busy.iter().sum();
    ph.lanes
        .worker_util
        .push(total as f64 / (WORKERS as f64 * wall));
}

fn end_of_round(ph: &mut Phase, variant: &Variant, store: &Store<Qed>) {
    let dump = store.state_dump();
    ph.check(
        "state_dump_equals_replay_reference",
        dump == variant.reference,
        || "concurrent replay diverged from replay_reference".to_string(),
    );
    let mut state = dump;
    let mut labels = LabelSize::default();
    let mut nodes = 0u64;
    let classes = store.query_classes();
    store.for_each_doc(|id, slot| {
        let doc = slot.doc();
        labels.add(LabelSize {
            total_bits: doc.labeling().total_bits(),
            labels: doc.labeling().len() as u64,
            max_bits: doc.labeling().max_bits(),
        });
        nodes += doc.tree().len() as u64;
        for q in 0..classes {
            state.push_str(&format!("doc {id} q{q}: {:?}\n", doc.cached_rows(q)));
        }
        if !variant.touched[id as usize] {
            return;
        }
        // An ad-hoc read of the document as the round's writes left
        // it: a fresh copy has no snapshot, as a written one has not.
        let copy = Document::encode(Qed::new(), doc.tree()).map_err(|e| e.to_string());
        if let Some(mut copy) = ph.op(copy) {
            let (dt, done) = ph.timed(|| copy.xpath(XPATH).map_err(|e| e.to_string()));
            if done.is_some() {
                ph.xpath_ms.push(dt as f64 / 1e6);
            }
            for (q, expr) in StoreConfig::fleet().query_exprs.iter().enumerate() {
                let cached = doc.cached_rows(q);
                let fresh = copy.xpath(expr).map_err(|e| e.to_string());
                let ok = matches!((cached, &fresh), (Some(a), Ok(b)) if a == b.as_slice());
                ph.check("cached_rows_equal_fresh_xpath", ok, || {
                    format!("doc {id} {expr}: cached {cached:?} vs fresh {fresh:?}")
                });
            }
        }
    });
    ph.state = state;
    ph.round_labels(labels);
    ph.scheme_labels.insert("qed", labels);
    ph.nodes.insert("fleet.nodes.final".to_string(), nodes);
}
