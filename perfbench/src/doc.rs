//! One interface over the real `Document` (untraced run) and its
//! traced twin, so a workload step is written once.

use std::fmt::Write as _;

use xupd_flux::DocumentUpdate;
use xupd_framework::document::Document;
use xupd_framework::mutations::MutationLog;
use xupd_framework::querycache::QueryId;
use xupd_labelcore::{Labeling, LabelingScheme};
use xupd_xmldom::{serialize_compact, XmlTree};

use crate::mirror::{BatchCounts, TracedDoc};

/// Pairs sampled per relation by the end-of-round verification.
const VERIFY_PAIRS: usize = 300;
const VERIFY_SEED: u64 = 0xbe4c;

/// Label-size totals over the live nodes of one document.
#[derive(Debug, Default, Clone, Copy)]
pub struct LabelSize {
    pub total_bits: u64,
    pub labels: u64,
    pub max_bits: u64,
}

impl LabelSize {
    fn of<L: xupd_labelcore::Label>(l: &Labeling<L>) -> LabelSize {
        LabelSize {
            total_bits: l.total_bits(),
            labels: l.len() as u64,
            max_bits: l.max_bits(),
        }
    }

    pub fn add(&mut self, o: LabelSize) {
        self.total_bits += o.total_bits;
        self.labels += o.labels;
        self.max_bits = self.max_bits.max(o.max_bits);
    }

    pub fn mean(&self) -> f64 {
        if self.labels == 0 {
            0.0
        } else {
            self.total_bits as f64 / self.labels as f64
        }
    }
}

/// The document calls the workloads make.
pub trait Doc {
    fn tree(&self) -> &XmlTree;
    fn label_size(&self) -> LabelSize;
    fn register(&mut self, expr: &str, strings: bool) -> Result<QueryId, String>;
    fn apply_log(&mut self, log: &MutationLog, counts: &mut BatchCounts) -> Result<(), String>;
    fn update(&mut self, src: &str, counts: &mut BatchCounts) -> Result<(), String>;
    /// A registered-query read that walks the returned rows, as a
    /// reader of the result would; returns the row count.
    fn query(&mut self, q: QueryId) -> Result<usize, String>;
    fn cached_rows(&mut self, q: QueryId) -> Result<Vec<usize>, String>;
    fn xpath(&mut self, expr: &str) -> Result<Vec<usize>, String>;
    fn snapshot_rebuilds(&self) -> u64;
    fn verify_sound(&self) -> Result<bool, String>;
    /// Labels in node-id order, for the traced/untraced state check.
    fn label_dump(&self) -> String;
}

/// Walk a result set so the read is not optimised away.
fn consume(rows: &[usize]) -> usize {
    std::hint::black_box(rows.iter().fold(0usize, |acc, &r| acc.wrapping_add(r)));
    rows.len()
}

fn dump_labels<L: xupd_labelcore::Label>(l: &Labeling<L>) -> String {
    let mut out = String::new();
    for (id, label) in l.iter() {
        let _ = writeln!(out, "{} {label:?}", id.index());
    }
    out
}

/// The tree and the rows of `queries`, as the traced and untraced runs
/// must leave them.
pub fn state_of(
    doc: &mut dyn Doc,
    queries: &[QueryId],
    with_labels: bool,
) -> Result<String, String> {
    let mut out = serialize_compact(doc.tree());
    for &q in queries {
        let _ = write!(out, "\nq{q}: {:?}", doc.cached_rows(q)?);
    }
    if with_labels {
        out.push('\n');
        out.push_str(&doc.label_dump());
    }
    Ok(out)
}

impl<S: LabelingScheme + Clone + 'static> Doc for Document<S> {
    fn tree(&self) -> &XmlTree {
        Document::tree(self)
    }

    fn label_size(&self) -> LabelSize {
        LabelSize::of(self.labeling())
    }

    fn register(&mut self, expr: &str, strings: bool) -> Result<QueryId, String> {
        self.register_query(expr, strings)
            .map_err(|e| e.to_string())
    }

    fn apply_log(&mut self, log: &MutationLog, _: &mut BatchCounts) -> Result<(), String> {
        Document::apply_log(self, log)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    fn update(&mut self, src: &str, _: &mut BatchCounts) -> Result<(), String> {
        DocumentUpdate::update(self, src)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    fn query(&mut self, q: QueryId) -> Result<usize, String> {
        self.query_cached(q).map(consume).map_err(|e| e.to_string())
    }

    fn cached_rows(&mut self, q: QueryId) -> Result<Vec<usize>, String> {
        self.query_cached(q)
            .map(<[usize]>::to_vec)
            .map_err(|e| e.to_string())
    }

    fn xpath(&mut self, expr: &str) -> Result<Vec<usize>, String> {
        Document::xpath(self, expr).map_err(|e| e.to_string())
    }

    fn snapshot_rebuilds(&self) -> u64 {
        Document::snapshot_rebuilds(self)
    }

    fn verify_sound(&self) -> Result<bool, String> {
        self.verify()
            .map(|v| v.is_sound())
            .map_err(|e| e.to_string())
    }

    fn label_dump(&self) -> String {
        dump_labels(self.labeling())
    }
}

impl<S: LabelingScheme + Clone + 'static> Doc for TracedDoc<S> {
    fn tree(&self) -> &XmlTree {
        TracedDoc::tree(self)
    }

    fn label_size(&self) -> LabelSize {
        LabelSize::of(self.labeling())
    }

    fn register(&mut self, expr: &str, strings: bool) -> Result<QueryId, String> {
        self.register_query(expr, strings)
    }

    fn apply_log(&mut self, log: &MutationLog, counts: &mut BatchCounts) -> Result<(), String> {
        TracedDoc::apply_log(self, log, counts)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    fn update(&mut self, src: &str, counts: &mut BatchCounts) -> Result<(), String> {
        TracedDoc::update(self, src, counts).map(|_| ())
    }

    fn query(&mut self, q: QueryId) -> Result<usize, String> {
        self.query_cached(q).map(consume).map_err(|e| e.to_string())
    }

    fn cached_rows(&mut self, q: QueryId) -> Result<Vec<usize>, String> {
        self.query_cached(q)
            .map(<[usize]>::to_vec)
            .map_err(|e| e.to_string())
    }

    fn xpath(&mut self, expr: &str) -> Result<Vec<usize>, String> {
        TracedDoc::xpath(self, expr)
    }

    fn snapshot_rebuilds(&self) -> u64 {
        TracedDoc::snapshot_rebuilds(self)
    }

    fn verify_sound(&self) -> Result<bool, String> {
        self.verify(VERIFY_PAIRS, VERIFY_SEED)
            .map(|v| v.is_sound())
            .map_err(|e| e.to_string())
    }

    fn label_dump(&self) -> String {
        dump_labels(self.labeling())
    }
}
