//! The traced twin of `framework::document::Document`.
//!
//! The traced run cannot open spans inside the library, so it makes
//! the public calls a `Document` method makes, one by one, each inside
//! a span: `Document::apply_log` becomes `analysis::analyze` →
//! `mutations::apply_log` → snapshot patch or drop →
//! `QueryCache::absorb`, and `DocumentUpdate::update` becomes
//! `FluxProgram::parse` → `check` → `compile_unchecked` → `analyze` →
//! `apply_plan_with_dyn` → the same maintenance tail. The benchmark
//! checks that the twin ends in the same tree and cached rows as the
//! real `Document` of the untraced run, so a drift between the two
//! shows as a failed run rather than as silently wrong layer numbers.

use xupd_encoding::{parse_xpath, EncodedDocument};
use xupd_flux::FluxProgram;
use xupd_framework::analysis::{self, AnalyzedPlan, ApplyOptions};
use xupd_framework::driver::DriveStats;
use xupd_framework::mutations::{self, Mutation, MutationLog, NodeRef};
use xupd_framework::querycache::{QueryCache, QueryId};
use xupd_framework::verify::{self, VerifyOutcome};
use xupd_labelcore::{Labeling, LabelingScheme, SessionMut};
use xupd_testkit::alloc;
use xupd_xmldom::{TreeError, XmlTree};

use crate::trace;

/// What one traced batch did, beyond its spans.
#[derive(Debug, Default, Clone)]
pub struct BatchCounts {
    pub submitted: u64,
    /// `None` on the cacheless path, where no analysis runs.
    pub effective: Option<u64>,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub relabeled: u64,
    pub overflow_events: u64,
    /// Query classifications, when the cache absorbed the batch.
    pub unaffected: u64,
    pub repaired: u64,
    pub rebuilt: u64,
    pub absorbed: bool,
}

/// A document assembled from the library's public parts.
pub struct TracedDoc<S: LabelingScheme + Clone + 'static> {
    tree: XmlTree,
    scheme: S,
    labeling: Labeling<S::Label>,
    snapshot: Option<EncodedDocument<S>>,
    snapshot_rebuilds: u64,
    cache: QueryCache,
    /// Span tag naming the scheme.
    tag: &'static str,
}

impl<S: LabelingScheme + Clone + 'static> TracedDoc<S> {
    /// `Document::encode`.
    pub fn encode(mut scheme: S, tree: &XmlTree, tag: &'static str) -> Result<Self, TreeError> {
        let tree = tree.clone();
        let labeling = scheme.label_tree(&tree)?;
        Ok(TracedDoc {
            tree,
            scheme,
            labeling,
            snapshot: None,
            snapshot_rebuilds: 0,
            cache: QueryCache::new(),
            tag,
        })
    }

    pub fn tree(&self) -> &XmlTree {
        &self.tree
    }

    pub fn labeling(&self) -> &Labeling<S::Label> {
        &self.labeling
    }

    pub fn snapshot_rebuilds(&self) -> u64 {
        self.snapshot_rebuilds
    }

    /// `Document::verify`, with the caller's sampling.
    pub fn verify(&self, pairs: usize, seed: u64) -> Result<VerifyOutcome, TreeError> {
        verify::verify(&self.tree, &self.scheme, &self.labeling, pairs, seed)
    }

    /// `Document::register_query`.
    pub fn register_query(&mut self, expr: &str, want_strings: bool) -> Result<QueryId, String> {
        let expr = parse_xpath(expr).map_err(|e| e.to_string())?;
        self.cache
            .register(&expr, want_strings, &self.tree)
            .map_err(|e| e.to_string())
    }

    /// `Document::query_cached`.
    pub fn query_cached(&mut self, q: QueryId) -> Result<&[usize], TreeError> {
        let _s = trace::span("querycache.read");
        if self.cache.is_stale() {
            self.cache.refresh(&self.tree)?;
        }
        Ok(self.cache.hit(q))
    }

    /// `Document::xpath`: snapshot (re)build if needed, then evaluate.
    pub fn xpath(&mut self, expr: &str) -> Result<Vec<usize>, String> {
        let _s = trace::span("document.xpath");
        let expr = parse_xpath(expr).map_err(|e| e.to_string())?;
        if self.snapshot.is_none() {
            let _e = trace::span("encoding.snapshot_encode");
            let enc = EncodedDocument::encode(self.scheme.clone(), &self.tree)
                .map_err(|e| e.to_string())?;
            self.snapshot_rebuilds += 1;
            self.snapshot = Some(enc);
        }
        let _e = trace::span("encoding.xpath_eval");
        match &self.snapshot {
            Some(enc) => Ok(expr.evaluate(enc)),
            None => Err("snapshot missing after build".to_string()),
        }
    }

    /// Run `f` inside the apply span, counting its allocations.
    fn apply_span(
        &mut self,
        counts: &mut BatchCounts,
        f: impl FnOnce(&mut Self) -> Result<DriveStats, TreeError>,
    ) -> Result<DriveStats, TreeError> {
        let _s = trace::tagged("apply", self.tag);
        let (e0, b0) = alloc::counts();
        let out = f(self);
        let (e1, b1) = alloc::counts();
        counts.allocs += e1 - e0;
        counts.alloc_bytes += b1 - b0;
        if let Ok(stats) = &out {
            counts.relabeled += stats.relabeled;
            counts.overflow_events += stats.overflow_events;
        }
        out
    }

    /// `Document::apply_log`.
    pub fn apply_log(
        &mut self,
        log: &MutationLog,
        counts: &mut BatchCounts,
    ) -> Result<DriveStats, TreeError> {
        let _s = trace::span("document.apply_log");
        counts.submitted += log.len() as u64;
        if (self.cache.is_empty() || self.cache.is_stale()) && self.snapshot.is_none() {
            let stats = self.apply_span(counts, |d| {
                mutations::apply_log(&mut d.tree, &mut d.scheme, &mut d.labeling, log)
            })?;
            self.cache.mark_stale();
            return Ok(stats);
        }
        let (plan, effective) = {
            let _a = trace::span("analysis.analyze");
            let plan = analysis::analyze(log, &self.tree)?;
            let effective = plan.execution_order(false, self.scheme.cancellation_neutral());
            (plan, effective)
        };
        let stats = self.apply_span(counts, |d| {
            mutations::apply_log(&mut d.tree, &mut d.scheme, &mut d.labeling, log)
        })?;
        self.maintain(log, &plan, &effective, counts);
        Ok(stats)
    }

    /// `DocumentUpdate::update` under the default options.
    pub fn update(&mut self, src: &str, counts: &mut BatchCounts) -> Result<DriveStats, String> {
        let _s = trace::span("flux.update");
        let program = {
            let _p = trace::span("flux.parse");
            FluxProgram::parse(src).map_err(|d| format!("{d:?}"))?
        };
        {
            let _c = trace::span("flux.check");
            let diags = program.check();
            if !diags.is_empty() {
                return Err(format!("{diags:?}"));
            }
        }
        let log = {
            let _l = trace::span("flux.lower");
            program
                .compile_unchecked(&self.tree)
                .map_err(|d| d.to_string())?
        };
        let plan = {
            let _a = trace::span("analysis.analyze");
            analysis::analyze(&log, &self.tree).map_err(|e| e.to_string())?
        };
        counts.submitted += log.len() as u64;
        let opts = ApplyOptions::default();
        let stats = self
            .apply_span(counts, |d| {
                let mut session = SessionMut::new(&mut d.scheme, &mut d.labeling);
                analysis::apply_plan_with_dyn(&mut d.tree, &mut session, &log, &plan, opts)
            })
            .map_err(|e| e.to_string())?;
        let (reorder, cancel) = opts.granted(
            self.scheme.order_independent(),
            self.scheme.cancellation_neutral(),
        );
        let effective = plan.execution_order(reorder, cancel);
        self.maintain(&log, &plan, &effective, counts);
        Ok(stats)
    }

    /// The post-apply tail of `Document`: snapshot patch or drop, then
    /// cache absorption.
    fn maintain(
        &mut self,
        log: &MutationLog,
        plan: &AnalyzedPlan,
        effective: &[usize],
        counts: &mut BatchCounts,
    ) {
        counts.effective = Some(counts.effective.unwrap_or(0) + effective.len() as u64);
        if effective.is_empty() {
            return;
        }
        let ops: Vec<&Mutation> = log.iter().collect();
        let text_only = effective.iter().all(|&i| {
            matches!(
                ops.get(i),
                Some(Mutation::SetText {
                    target: NodeRef::Node(_),
                    ..
                })
            )
        });
        {
            let _p = trace::span("document.snapshot_maintain");
            if text_only {
                self.patch_snapshot_text(&ops, effective);
            } else {
                self.snapshot = None;
            }
        }
        if !self.cache.is_empty() && !self.cache.is_stale() {
            let _q = trace::span("querycache.absorb");
            match self.cache.absorb(log, plan, effective, &self.tree) {
                Ok(impact) => {
                    counts.absorbed = true;
                    counts.unaffected += impact.unaffected as u64;
                    counts.repaired += impact.repaired as u64;
                    counts.rebuilt += impact.rebuilt as u64;
                }
                Err(_) => self.cache.mark_stale(),
            }
        }
    }

    fn patch_snapshot_text(&mut self, ops: &[&Mutation], effective: &[usize]) {
        let Some(snap) = self.snapshot.as_mut() else {
            return;
        };
        for &i in effective {
            if let Some(Mutation::SetText {
                target: NodeRef::Node(id),
                text,
            }) = ops.get(i)
            {
                let patched = snap
                    .row_of_source(*id)
                    .map(|row| snap.patch_text(row, text).is_ok());
                if patched != Some(true) {
                    self.snapshot = None;
                    return;
                }
            }
        }
    }
}
