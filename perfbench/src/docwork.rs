//! The single-document workloads: `bigdoc_structural`, `bigdoc_text`
//! and `label_skew`.
//!
//! Every round starts from a freshly encoded copy of the generated
//! input and replays the same inputs, so a round's work does not depend
//! on how many rounds the time budget allows. Set-up (encode plus query
//! registration) is timed per round; the checks at the end of a round
//! are not timed.

use xupd_framework::document::Document;
use xupd_framework::mutations::batch_of;
use xupd_framework::querycache::QueryId;
use xupd_labelcore::LabelingScheme;
use xupd_schemes::containment::accel::XPathAccelerator;
use xupd_schemes::prefix::dewey::DeweyId;
use xupd_schemes::prefix::ordpath::OrdPath;
use xupd_schemes::prefix::qed::Qed;
use xupd_schemes::vector::VectorScheme;
use xupd_testkit::TestRng;
use xupd_workloads::{docs, Script, ScriptKind};
use xupd_xmldom::XmlTree;

use crate::doc::{state_of, Doc, LabelSize};
use crate::mirror::{BatchCounts, TracedDoc};
use crate::phase::{Phase, Stop};
use crate::trace;
use crate::Size;

/// The registered queries (the fleet's three classes, strings on).
pub const QUERIES: [&str; 3] = ["//item", "//name", "//person"];
/// The ad-hoc read issued after every write.
pub const XPATH: &str = "//person/name";

/// The scheme tags of `label_skew`, one per labelling family.
pub const SKEW_SCHEMES: [&str; 5] = ["qed", "ordpath", "deweyid", "vector", "xpath_accelerator"];

fn boxed<S: LabelingScheme + Clone + 'static>(
    scheme: S,
    tag: &'static str,
    tree: &XmlTree,
    traced: bool,
) -> Result<Box<dyn Doc>, String> {
    if traced {
        Ok(Box::new(
            TracedDoc::encode(scheme, tree, tag).map_err(|e| e.to_string())?,
        ))
    } else {
        Ok(Box::new(
            Document::encode(scheme, tree).map_err(|e| e.to_string())?,
        ))
    }
}

fn scheme_doc(tag: &str, tree: &XmlTree, traced: bool) -> Result<Box<dyn Doc>, String> {
    match tag {
        "qed" => boxed(Qed::new(), "qed", tree, traced),
        "ordpath" => boxed(OrdPath::new(), "ordpath", tree, traced),
        "deweyid" => boxed(DeweyId::new(), "deweyid", tree, traced),
        "vector" => boxed(VectorScheme::new(), "vector", tree, traced),
        "xpath_accelerator" => boxed(XPathAccelerator::new(), "xpath_accelerator", tree, traced),
        other => Err(format!("unknown scheme {other}")),
    }
}

fn elements(tree: &XmlTree) -> usize {
    docs::element_pool(tree).len()
}

/// What a big-document step writes.
enum Write {
    Script(Script),
    Flux(String),
}

/// Generated inputs of a big-document workload.
pub struct BigDoc {
    tree: XmlTree,
    writes: Vec<Write>,
}

impl BigDoc {
    /// `bigdoc_structural`: 8-op `Random` or `MixedDelete` scripts.
    pub fn structural(seed: u64, size: &Size) -> BigDoc {
        let tree = docs::xmark_like(seed, size.bigdoc_scale);
        let mut rng = TestRng::seed_from_u64(seed ^ 0x5157);
        let hint = elements(&tree);
        let writes = (0..size.structural_steps)
            .map(|_| {
                let kind = if rng.gen_bool(0.5) {
                    ScriptKind::Random
                } else {
                    ScriptKind::MixedDelete
                };
                Write::Script(Script::generate(kind, 8, hint, rng.next_u64()))
            })
            .collect();
        BigDoc { tree, writes }
    }

    /// `bigdoc_text`: flux programs of 8 `set … /name/text()` statements
    /// on distinct people.
    pub fn text(seed: u64, size: &Size) -> BigDoc {
        let tree = docs::xmark_like(seed, size.bigdoc_scale);
        let people = (size.bigdoc_scale / 3).max(8);
        let mut rng = TestRng::seed_from_u64(seed ^ 0x7e47);
        let writes = (0..size.text_steps)
            .map(|step| {
                let mut picked: Vec<usize> = Vec::with_capacity(8);
                while picked.len() < 8 {
                    let k = rng.gen_range(0..people);
                    if !picked.contains(&k) {
                        picked.push(k);
                    }
                }
                let src: String = picked
                    .iter()
                    .enumerate()
                    .map(|(j, k)| {
                        format!(
                            "set /site/people/person[@id=\"person{k}\"]/name/text() to \"Renamed {step}.{j}\";\n"
                        )
                    })
                    .collect();
                Write::Flux(src)
            })
            .collect();
        BigDoc { tree, writes }
    }

    pub fn run(&self, stop: Stop, traced: bool) -> Phase {
        let mut ph = Phase::start(1);
        ph.nodes
            .insert("bigdoc.initial".to_string(), self.tree.len() as u64);
        let mut batch = 0u64;
        while ph.more(stop) {
            let built = ph.setup(|| {
                let mut doc = scheme_doc("qed", &self.tree, traced)?;
                let qs = QUERIES
                    .iter()
                    .map(|q| doc.register(q, true))
                    .collect::<Result<Vec<QueryId>, String>>()?;
                Ok((doc, qs))
            });
            let Some((mut doc, qs)) = built else {
                break;
            };
            for w in &self.writes {
                batch += 1;
                trace::set_batch(batch);
                let mut counts = BatchCounts::default();
                let d = &mut *doc;
                let (dt, done) = ph.timed(|| match w {
                    Write::Script(script) => {
                        let log = {
                            let _s = trace::span("mutations.batch_of");
                            batch_of(script, d.tree()).map_err(|e| e.to_string())?
                        };
                        d.apply_log(&log, &mut counts)
                    }
                    Write::Flux(src) => d.update(src, &mut counts),
                });
                if done.is_some() {
                    ph.update_ms.push(dt as f64 / 1e6);
                }
                ph.batches.push(counts);
                for &q in &qs {
                    let (dt, done) = ph.timed(|| d.query(q));
                    if done.is_some() {
                        ph.query_us.push(dt as f64 / 1e3);
                    }
                }
                let (dt, done) = ph.timed(|| d.xpath(XPATH));
                if done.is_some() {
                    ph.xpath_ms.push(dt as f64 / 1e6);
                }
            }
            ph.rounds += 1;
            ph.snapshot_rebuilds += doc.snapshot_rebuilds();
            ph.round_labels(doc.label_size());
            ph.scheme_labels.insert("qed", ph.labels);
            ph.nodes
                .insert("bigdoc.final".to_string(), doc.tree().len() as u64);
            end_of_round_checks(&mut ph, &mut *doc, &qs);
        }
        ph
    }
}

/// Soundness, cache-vs-fresh equality, and the state fingerprint.
fn end_of_round_checks(ph: &mut Phase, doc: &mut dyn Doc, qs: &[QueryId]) {
    match doc.verify_sound() {
        Ok(sound) => ph.check("verify_sound", sound, || {
            "labelling failed verification".into()
        }),
        Err(e) => ph.check("verify_sound", false, || e),
    }
    match state_of(doc, qs, false) {
        Ok(s) => ph.state = s,
        Err(e) => ph.check("state", false, || e),
    }
    for (&q, expr) in qs.iter().zip(QUERIES) {
        check_cache(ph, doc, q, expr);
    }
}

/// A registered query's cached rows must equal a fresh evaluation.
fn check_cache(ph: &mut Phase, doc: &mut dyn Doc, q: QueryId, expr: &str) {
    let cached = doc.cached_rows(q);
    let fresh = doc.xpath(expr);
    let ok = matches!((&cached, &fresh), (Ok(a), Ok(b)) if a == b);
    ph.check("cached_rows_equal_fresh_xpath", ok, || {
        format!("{expr}: cached {cached:?} vs fresh {fresh:?}")
    });
}

/// `label_skew`: one document per labelling family under a stream of
/// 16-op batches cycling `PrependStorm`, `Zigzag` and `Skewed`, with no
/// registered queries.
pub struct LabelSkew {
    tree: XmlTree,
    scripts: Vec<Script>,
}

/// The read issued on each skewed document after its round.
const SKEW_XPATH: &str = "//item/name";
const SKEW_QUERY: &str = "//*";
/// Registered-query reads per skewed document after its round.
const SKEW_READS: usize = 8;

impl LabelSkew {
    pub fn new(seed: u64, size: &Size) -> LabelSkew {
        let tree = docs::xmark_like(seed, size.skew_scale);
        let hint = elements(&tree);
        let kinds = [
            ScriptKind::PrependStorm,
            ScriptKind::Zigzag,
            ScriptKind::Skewed,
        ];
        let scripts = (0..size.skew_batches)
            .map(|b| Script::generate(kinds[b % kinds.len()], 16, hint, seed ^ b as u64))
            .collect();
        LabelSkew { tree, scripts }
    }

    pub fn run(&self, stop: Stop, traced: bool) -> Phase {
        let mut ph = Phase::start(1);
        ph.nodes.insert(
            "label_skew.initial_per_doc".to_string(),
            self.tree.len() as u64,
        );
        let mut batch = 0u64;
        while ph.more(stop) {
            let built = ph.setup(|| {
                SKEW_SCHEMES
                    .iter()
                    .map(|tag| scheme_doc(tag, &self.tree, traced))
                    .collect::<Result<Vec<_>, String>>()
            });
            let Some(mut docs) = built else {
                break;
            };
            for script in &self.scripts {
                for doc in docs.iter_mut() {
                    batch += 1;
                    trace::set_batch(batch);
                    let mut counts = BatchCounts::default();
                    let d = &mut **doc;
                    let (dt, done) = ph.timed(|| {
                        let log = {
                            let _s = trace::span("mutations.batch_of");
                            batch_of(script, d.tree()).map_err(|e| e.to_string())?
                        };
                        d.apply_log(&log, &mut counts)
                    });
                    if done.is_some() {
                        ph.update_ms.push(dt as f64 / 1e6);
                    }
                    ph.batches.push(counts);
                }
            }
            ph.rounds += 1;
            ph.state.clear();
            let mut all = LabelSize::default();
            for (tag, doc) in SKEW_SCHEMES.iter().zip(docs.iter_mut()) {
                let size = doc.label_size();
                all.add(size);
                ph.scheme_labels.insert(tag, size);
                ph.nodes
                    .insert(format!("label_skew.final.{tag}"), doc.tree().len() as u64);
                match doc.verify_sound() {
                    Ok(sound) => ph.check("verify_sound", sound, || format!("{tag} unsound")),
                    Err(e) => ph.check("verify_sound", false, || e),
                }
                match state_of(&mut **doc, &[], true) {
                    Ok(s) => ph.state.push_str(&s),
                    Err(e) => ph.check("state", false, || e),
                }
            }
            ph.round_labels(all);
            // Reads come after the last write of the round, so the
            // batches above keep the cacheless apply path.
            for doc in docs.iter_mut() {
                let d = &mut **doc;
                let (dt, done) = ph.timed(|| d.xpath(SKEW_XPATH));
                if done.is_some() {
                    ph.xpath_ms.push(dt as f64 / 1e6);
                }
                let Some(q) = ph.op(d.register(SKEW_QUERY, false)) else {
                    continue;
                };
                for _ in 0..SKEW_READS {
                    let (dt, done) = ph.timed(|| d.query(q));
                    if done.is_some() {
                        ph.query_us.push(dt as f64 / 1e3);
                    }
                }
                check_cache(&mut ph, d, q, SKEW_QUERY);
            }
        }
        ph
    }
}
