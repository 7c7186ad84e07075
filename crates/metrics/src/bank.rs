//! The draw bank: every random primitive of a Monte Carlo estimate, drawn
//! once per frozen context and shared by all candidates and hours.
//!
//! Regions and hours enter a sampled execution only through constants
//! (performance factors, one-way latencies, grid intensities, prices,
//! which logged history a site reads). What is random — the base × noise
//! execution factor, the cold start, the conditional-edge uniform, payload
//! bytes, orchestration overheads, transfer jitter, the pick into a
//! learned history — does not depend on the plan. The bank keeps one
//! lazily extended column per (site, primitive), each on its own stream
//! split off the bank's root seed, and an estimate *folds* the columns
//! over the sample index with its plan's constants. The root is the
//! bank's name, given once, when it is made ([`SharedBank::new`]).
//!
//! Element `i` of a column is a pure function of (root, site, primitive,
//! `i`): a column owns its generator and only ever appends, so neither the
//! order estimates arrive in, nor the chunks they extend by, nor a
//! re-created bank can change a value. Two plans that agree on a site read
//! the same draws there (common random numbers), which is what makes the
//! difference of two estimates far less noisy than either.
//!
//! Beside the primitives the bank keeps the [`Derived`] columns the fold
//! computes from them on its way: what each sample moved over the entry
//! and every edge, its bytes over each bandwidth the transfer was read at,
//! and — for each region a plan has run a node in — the seconds the node
//! took, what Lambda billed for them and the energy it drew. They are pure
//! functions of (bank, site, region or bandwidth) too — no plan or hour
//! enters them — so a second plan that agrees on a site reads its columns
//! instead of computing them, and the pass that prices a folded plan at an
//! hour reads the energy and bytes instead of folding again.
//!
//! A fold lists no columns up front. It reads the bank under the read
//! lock, each column by index — a `(site, primitive)` slot, a node's
//! columns by its region, a transfer's quotient by its bandwidth — and
//! only if one is short does it [`SharedBank::fill`]: under the write lock
//! `crate::prep` walks the sites its plan reads and hands each primitive
//! it still needs to the bank, which draws it, preparing a profile
//! distribution only then. Then the batch is folded again.

use std::sync::{Arc, RwLock, RwLockReadGuard};

use caribou_model::dist::DistSpec;
use caribou_model::region::RegionId;
use caribou_model::rng::{Pcg32, SeedSplitter};

/// Where in a workflow execution a draw is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Site {
    /// Client → start node.
    Entry,
    /// A node's execution.
    Node(usize),
    /// A node's external-data fetch, node → home leg.
    ExtOut(usize),
    /// A node's external-data fetch, home → node leg.
    ExtBack(usize),
    /// An edge's invocation.
    Edge(usize),
}

impl Site {
    /// Dense index over the sites of a DAG with `nodes` nodes; also the
    /// label the site's streams are split by.
    fn index(self, nodes: usize) -> usize {
        match self {
            Site::Entry => 0,
            Site::Node(k) => 1 + k,
            Site::ExtOut(k) => 1 + nodes + k,
            Site::ExtBack(k) => 1 + 2 * nodes + k,
            Site::Edge(e) => 1 + 3 * nodes + e,
        }
    }
}

/// Which primitive of a site a column holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Prim {
    /// Input bytes (entry), base × noise execution factor (node), payload
    /// bytes (edge).
    Value,
    /// Invocation setup (entry) or transition overhead (edge), seconds.
    Overhead,
    /// Multiplicative transfer jitter.
    Jitter,
    /// Uniform `[0, 1)` locating the pick in a learned history.
    Pick,
    /// Uniform `[0, 1)` deciding a conditional edge.
    Taken,
    /// Cold-start penalty, seconds; sparse, one column per curve.
    Cold,
}

const PRIMS: usize = 6;

/// How a column's values are drawn. A profile distribution is prepared
/// (its logarithm taken) when the column is extended, not before.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Draw<'a> {
    /// One sample of a profile distribution.
    Dist(&'a DistSpec),
    /// `base.max(0) × lognormal(0, sigma)`: the region-free part of
    /// `LambdaRuntime::execute_forced`.
    ExecFactor { base: &'a DistSpec, sigma: f64 },
    /// `lognormal(mu, sigma)`.
    LogNormal { mu: f64, sigma: f64 },
    /// Uniform on `[0, 1)`.
    Uniform,
    /// With probability `prob`, one `.max(0)` sample of `curve`, the
    /// cold-start curve of `region`: the bank finds the column by (node,
    /// region).
    Cold {
        prob: f64,
        curve: &'a DistSpec,
        region: RegionId,
    },
}

/// One column an estimate reads, and how to fill it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Need<'a> {
    pub site: Site,
    pub prim: Prim,
    pub draw: Draw<'a>,
}

impl<'a> Need<'a> {
    pub(crate) fn new(site: Site, prim: Prim, draw: Draw<'a>) -> Self {
        Need { site, prim, draw }
    }
}

/// A column the fold derives from the primitives, per sample. The GB and
/// kWh columns are what the carbon terms of Eq. 7.1 and 7.5 multiply an
/// intensity by, `NaN` where the sample never got there (a conditional
/// edge not taken, a node not reached). A (node, region)'s three columns
/// are published together, so they always hold equally many samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Derived {
    /// GB the client sends the start node.
    EntryGb,
    /// GB an edge carries.
    EdgeGb(usize),
    /// `bytes.max(0) / bw` of a transfer site (the entry or an edge) at
    /// the bandwidth whose bits are the second field: the term the latency
    /// model adds to the one-way latency before the jitter multiplies the
    /// sum. Held for every sample, taken or not.
    Quotient(Site, u64),
    /// Seconds a node's execution in a region takes, external-data legs
    /// and cold start included; held for every sample, reached or not.
    Seconds(usize, RegionId),
    /// USD Lambda bills for those seconds, rounded up to the millisecond,
    /// plus the request; held for every sample too.
    Bill(usize, RegionId),
    /// kWh (facility overhead included) those seconds draw.
    Energy(usize, RegionId),
}

impl Derived {
    /// The three columns of a node run in a region, in the order the bank
    /// keeps them.
    pub(crate) fn site(node: usize, region: RegionId) -> [Derived; 3] {
        [
            Derived::Seconds(node, region),
            Derived::Bill(node, region),
            Derived::Energy(node, region),
        ]
    }

    /// The quotient column of transfer `site` at bandwidth `bw`.
    pub(crate) fn quotient(site: Site, bw: f64) -> Derived {
        Derived::Quotient(site, bw.to_bits())
    }

    /// A node column's node, region and place in [`Self::site`].
    fn of_site(self) -> Option<(usize, RegionId, usize)> {
        match self {
            Derived::EntryGb | Derived::EdgeGb(_) | Derived::Quotient(..) => None,
            Derived::Seconds(node, region) => Some((node, region, 0)),
            Derived::Bill(node, region) => Some((node, region, 1)),
            Derived::Energy(node, region) => Some((node, region, 2)),
        }
    }
}

#[derive(Debug)]
struct Column {
    rng: Pcg32,
    vals: Vec<f64>,
}

/// Cold starts are rare (2% by default), so the column keeps only the
/// samples that had one, ascending by sample index. Regions sharing a
/// cold-start curve share the column; different curves of one node share
/// its stream, so they agree on *which* samples are cold for as long as
/// they consume equally many draws per penalty.
#[derive(Debug)]
struct ColdColumn {
    curve: DistSpec,
    rng: Pcg32,
    drawn: usize,
    hits: Vec<(usize, f64)>,
}

/// Positions held per region, indexed by the region's index.
#[derive(Debug, Default, Clone)]
struct ByRegion(Vec<usize>);

impl ByRegion {
    const NONE: usize = usize::MAX;

    fn get(&self, region: RegionId) -> Option<usize> {
        let at = self.0.get(region.index()).copied();
        at.filter(|&at| at != Self::NONE)
    }

    fn set(&mut self, region: RegionId, at: usize) {
        let i = region.index();
        if self.0.len() <= i {
            self.0.resize(i + 1, Self::NONE);
        }
        self.0[i] = at;
    }

    fn positions(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().copied().filter(|&at| at != Self::NONE)
    }
}

/// The draw bank of one frozen estimation context. See the module docs.
#[derive(Debug, Default)]
pub struct DrawBank {
    /// The seed every column's stream is split off: the bank's name.
    root: u64,
    /// The DAG's (nodes, edges), taken at the first fill.
    shape: Option<(usize, usize)>,
    /// `(site, prim)` → position in `columns`; `usize::MAX` until drawn.
    slots: Vec<usize>,
    columns: Vec<Column>,
    cold: Vec<ColdColumn>,
    /// Per node, where in `cold` the column of each region resolved so
    /// far is.
    colds: Vec<ByRegion>,
    /// Derived columns: the entry's GB, one per edge, then each quotient
    /// and the three of each (node, region) in order of first publication.
    derived: Vec<Vec<f64>>,
    /// Per node, where the first of the three columns ([`Derived::site`])
    /// of each region it has them for is.
    sites: Vec<ByRegion>,
    /// Per transfer site (the entry, then each edge), the bandwidths it
    /// has a quotient column for, by their bits, and where it is.
    quotients: Vec<Vec<(u64, usize)>>,
}

impl DrawBank {
    /// Shapes an unshaped bank for a DAG of `(nodes, edges)`; a shaped one
    /// must have that shape.
    pub(crate) fn bind(&mut self, shape: (usize, usize)) {
        if let Some(bound) = self.shape {
            assert_eq!(bound, shape, "a draw bank holds one DAG shape");
            return;
        }
        let (nodes, edges) = shape;
        self.slots = vec![usize::MAX; (1 + 3 * nodes + edges) * PRIMS];
        self.colds = vec![ByRegion::default(); nodes];
        self.derived = vec![Vec::new(); 1 + edges];
        self.sites = vec![ByRegion::default(); nodes];
        self.quotients = vec![Vec::new(); 1 + edges];
        self.shape = Some(shape);
    }

    fn nodes(&self) -> usize {
        self.shape.map_or(0, |(nodes, _)| nodes)
    }

    fn slot(&self, site: Site, prim: Prim) -> usize {
        site.index(self.nodes()) * PRIMS + prim as usize
    }

    /// The generator of a new column: split off the bank's root by site
    /// and primitive.
    fn stream(&self, site: Site, prim: Prim) -> Pcg32 {
        SeedSplitter::new(self.root)
            .absorb(site.index(self.nodes()) as u64)
            .absorb(prim as u64)
            .rng()
    }

    /// Where in `cold` the cold-start column of `node` in `region` is,
    /// once resolved.
    fn cold_of(&self, node: usize, region: RegionId) -> Option<usize> {
        self.colds[node].get(region)
    }

    /// Whether `need`'s column already holds `n` samples.
    pub(crate) fn has(&self, need: &Need<'_>, n: usize) -> bool {
        match (need.site, need.draw) {
            (Site::Node(node), Draw::Cold { region, .. }) => self
                .cold_of(node, region)
                .is_some_and(|c| self.cold[c].drawn >= n),
            _ => self
                .columns
                .get(self.slots[self.slot(need.site, need.prim)])
                .is_some_and(|c| c.vals.len() >= n),
        }
    }

    /// Extends `need`'s column to `n` samples, creating it on first use.
    pub(crate) fn ensure(&mut self, need: &Need<'_>, n: usize) {
        if self.has(need, n) {
            return;
        }
        let before;
        match (need.site, need.draw) {
            (
                Site::Node(node),
                Draw::Cold {
                    prob,
                    curve,
                    region,
                },
            ) => {
                let at = self.cold_of(node, region).unwrap_or_else(|| {
                    // Resolved once per (node, region): a region whose
                    // curve another of the node's regions has shares its
                    // column.
                    let shared = self.colds[node]
                        .positions()
                        .find(|&at| self.cold[at].curve == *curve);
                    let at = shared.unwrap_or_else(|| {
                        caribou_telemetry::count("montecarlo.bank.columns", 1);
                        let rng = self.stream(need.site, need.prim);
                        self.cold.push(ColdColumn {
                            curve: curve.clone(),
                            rng,
                            drawn: 0,
                            hits: Vec::new(),
                        });
                        self.cold.len() - 1
                    });
                    self.colds[node].set(region, at);
                    at
                });
                let col = &mut self.cold[at];
                if col.drawn >= n {
                    // Another region with this curve drew it already.
                    return;
                }
                before = col.drawn;
                for i in col.drawn..n {
                    if col.rng.chance(prob) {
                        col.hits.push((i, curve.sample(&mut col.rng).max(0.0)));
                    }
                }
                col.drawn = n;
            }
            (_, draw) => {
                let slot = self.slot(need.site, need.prim);
                if self.slots[slot] == usize::MAX {
                    caribou_telemetry::count("montecarlo.bank.columns", 1);
                    self.slots[slot] = self.columns.len();
                    let rng = self.stream(need.site, need.prim);
                    self.columns.push(Column {
                        rng,
                        vals: Vec::new(),
                    });
                }
                let Column { rng, vals } = &mut self.columns[self.slots[slot]];
                before = vals.len();
                vals.reserve_exact(n - before);
                let draws = before..n;
                match draw {
                    Draw::Dist(spec) => {
                        let dist = spec.prepare();
                        vals.extend(draws.map(|_| dist.sample(rng)));
                    }
                    Draw::ExecFactor { base, sigma } => {
                        let base = base.prepare();
                        vals.extend(
                            draws.map(|_| base.sample(rng).max(0.0) * rng.lognormal(0.0, sigma)),
                        );
                    }
                    Draw::LogNormal { mu, sigma } => {
                        vals.extend(draws.map(|_| rng.lognormal(mu, sigma)));
                    }
                    Draw::Uniform => vals.extend(draws.map(|_| rng.next_f64())),
                    Draw::Cold { .. } => unreachable!("cold starts are node draws"),
                }
            }
        }
        caribou_telemetry::count("montecarlo.bank.extensions", 1);
        caribou_telemetry::count("montecarlo.bank.draws", (n - before) as u64);
    }

    /// Samples `lo..hi` of a column, if it holds that many.
    pub(crate) fn column(&self, site: Site, prim: Prim, lo: usize, hi: usize) -> Option<&[f64]> {
        let column = self.columns.get(self.slots[self.slot(site, prim)])?;
        column.vals.get(lo..hi)
    }

    /// The `(sample, penalty)` cold starts of a node in `region` among
    /// samples `lo..hi`, if its column is drawn that far.
    pub(crate) fn cold_starts(
        &self,
        node: usize,
        region: RegionId,
        lo: usize,
        hi: usize,
    ) -> Option<&[(usize, f64)]> {
        let col = &self.cold[self.cold_of(node, region)?];
        let hits = &col.hits[..col.hits.partition_point(|(i, _)| *i < hi)];
        (col.drawn >= hi).then(|| &hits[hits.partition_point(|(i, _)| *i < lo)..])
    }

    /// A transfer site's place in `quotients`.
    fn transfer(site: Site) -> usize {
        match site {
            Site::Entry => 0,
            Site::Edge(e) => 1 + e,
            _ => unreachable!("quotients are entry and edge columns"),
        }
    }

    fn derived_position(&self, col: Derived) -> Option<usize> {
        match col {
            Derived::EntryGb => Some(0),
            Derived::EdgeGb(e) => Some(1 + e),
            Derived::Quotient(site, bw) => {
                let held = &self.quotients[Self::transfer(site)];
                held.iter().find(|(b, _)| *b == bw).map(|&(_, at)| at)
            }
            _ => {
                let (node, region, nth) = col.of_site()?;
                self.sites[node].get(region).map(|first| first + nth)
            }
        }
    }

    /// The first `n` samples of a derived column, if it holds that many.
    pub(crate) fn derived(&self, col: Derived, n: usize) -> Option<&[f64]> {
        self.derived[self.derived_position(col)?].get(..n)
    }

    /// Appends what the column lacks of its samples `lo..`: nothing when
    /// they are there already (two workers folding a new site at once both
    /// compute it; one publishes), a tail when another stopping rule left
    /// it mid-batch.
    pub(crate) fn publish(&mut self, col: Derived, lo: usize, vals: &[f64]) {
        let at = self.derived_position(col).unwrap_or_else(|| {
            let first = self.derived.len();
            if let Derived::Quotient(site, bw) = col {
                self.quotients[Self::transfer(site)].push((bw, first));
                self.derived.push(Vec::new());
                return first;
            }
            let (node, region, nth) = col.of_site().expect("GB columns exist from binding");
            self.sites[node].set(region, first);
            self.derived.resize(first + 3, Vec::new());
            first + nth
        });
        let column = &mut self.derived[at];
        if let Some(tail) = column.len().checked_sub(lo).and_then(|had| vals.get(had..)) {
            if column.is_empty() {
                caribou_telemetry::count("montecarlo.bank.derived", 1);
            }
            column.extend_from_slice(tail);
        }
    }
}

/// A bank several worker threads fold at once: reads share the lock,
/// extension takes it exclusively.
#[derive(Debug, Clone)]
pub struct SharedBank(Arc<RwLock<DrawBank>>);

impl SharedBank {
    /// An empty bank whose columns are split off `root`: the bank of one
    /// frozen context, named for its life.
    pub fn new(root: u64) -> Self {
        let bank = DrawBank {
            root,
            ..DrawBank::default()
        };
        SharedBank(Arc::new(RwLock::new(bank)))
    }

    /// A read guard on the bank once a fill shaped it. A fold reads its
    /// columns under it and, should one be short, [`Self::fill`]s.
    pub(crate) fn bound(&self) -> Option<RwLockReadGuard<'_, DrawBank>> {
        Some(self.0.read().expect("bank lock")).filter(|bank| bank.shape.is_some())
    }

    /// Shapes the bank for a DAG of `shape` (see [`DrawBank::bind`]) and
    /// hands it to `fill` under the write lock.
    pub(crate) fn fill(&self, shape: (usize, usize), fill: impl FnOnce(&mut DrawBank)) {
        let mut write = self.0.write().expect("bank lock");
        write.bind(shape);
        fill(&mut write);
    }

    /// Publishes samples `lo..` of the derived columns a fold of this bank
    /// produced.
    pub(crate) fn publish<'c>(
        &self,
        lo: usize,
        columns: impl Iterator<Item = (Derived, &'c [f64])>,
    ) {
        let mut write = self.0.write().expect("bank lock");
        for (col, vals) in columns {
            write.publish(col, lo, vals);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: (usize, usize) = (3, 2);

    /// A bank of a three-node, two-edge DAG, named by a generator seeded
    /// with `seed`.
    fn shaped(seed: u64) -> DrawBank {
        let mut bank = DrawBank {
            root: Pcg32::seed(seed).next_u64(),
            ..DrawBank::default()
        };
        bank.bind(SHAPE);
        bank
    }

    const JITTER: Draw<'static> = Draw::LogNormal {
        mu: 0.0,
        sigma: 0.3,
    };

    #[test]
    fn values_do_not_depend_on_how_a_column_was_extended() {
        let at = Need::new(Site::Edge(1), Prim::Jitter, JITTER);
        let mut whole = shaped(9);
        whole.ensure(&at, 500);
        let mut chunked = shaped(9);
        for n in [1, 7, 200, 201, 500] {
            // A neighbouring column growing in between changes nothing.
            chunked.ensure(&Need::new(Site::Edge(0), Prim::Jitter, JITTER), n * 2);
            chunked.ensure(&at, n);
        }
        assert_eq!(
            whole.column(Site::Edge(1), Prim::Jitter, 0, 500),
            chunked.column(Site::Edge(1), Prim::Jitter, 0, 500)
        );
        // Asking for fewer samples than are there draws nothing.
        chunked.ensure(&at, 10);
        assert!(chunked
            .column(Site::Edge(1), Prim::Jitter, 0, 501)
            .is_none());
    }

    #[test]
    fn every_site_and_primitive_has_its_own_stream() {
        let mut bank = shaped(4);
        let sites = [
            Site::Entry,
            Site::Node(0),
            Site::Node(2),
            Site::ExtOut(0),
            Site::ExtBack(0),
            Site::Edge(0),
            Site::Edge(1),
        ];
        let mut firsts = Vec::new();
        for site in sites {
            for prim in [Prim::Jitter, Prim::Pick] {
                bank.ensure(&Need::new(site, prim, Draw::Uniform), 4);
                firsts.push(bank.column(site, prim, 0, 1).unwrap()[0].to_bits());
            }
        }
        firsts.sort_unstable();
        firsts.dedup();
        assert_eq!(firsts.len(), sites.len() * 2);
    }

    /// Filling again with the same shape keeps the columns; another shape
    /// panics, naming both.
    #[test]
    #[should_panic(expected = "a draw bank holds one DAG shape")]
    fn a_bound_bank_asked_for_another_shape_panics() {
        let at = Need::new(Site::Entry, Prim::Value, Draw::Uniform);
        let bank = SharedBank::new(1);
        bank.fill(SHAPE, |bank| bank.ensure(&at, 8));
        bank.fill(SHAPE, |bank| assert!(bank.has(&at, 8), "same shape"));
        bank.fill((4, 2), |_| {});
    }

    #[test]
    fn cold_columns_are_sparse_and_shared_per_curve() {
        let curve = DistSpec::LogNormal {
            median: 0.35,
            sigma: 0.35,
        };
        let steeper = DistSpec::LogNormal {
            median: 0.9,
            sigma: 0.5,
        };
        let cold = |curve, region| Draw::Cold {
            prob: 0.1,
            curve,
            region: RegionId(region),
        };
        let mut bank = shaped(5);
        bank.ensure(&Need::new(Site::Node(1), Prim::Cold, cold(&curve, 0)), 400);
        bank.ensure(
            &Need::new(Site::Node(1), Prim::Cold, cold(&steeper, 1)),
            1_000,
        );
        // Regions 2 and 3 have region 0's curve: they read region 0's
        // column, which region 3 finds deeper than it asks for.
        bank.ensure(
            &Need::new(Site::Node(1), Prim::Cold, cold(&curve, 2)),
            1_000,
        );
        bank.ensure(&Need::new(Site::Node(1), Prim::Cold, cold(&curve, 3)), 500);
        assert_eq!(bank.cold.len(), 2);
        let a = bank.cold_starts(1, RegionId(0), 0, 1_000).unwrap();
        let b = bank.cold_starts(1, RegionId(1), 0, 1_000).unwrap();
        for region in [2, 3] {
            assert_eq!(Some(a), bank.cold_starts(1, RegionId(region), 0, 1_000));
        }
        assert!((60..150).contains(&a.len()), "{} cold of 1000", a.len());
        // Same stream, same draws per penalty: the same samples are cold.
        let samples = |hits: &[(usize, f64)]| hits.iter().map(|h| h.0).collect::<Vec<_>>();
        assert_eq!(samples(a), samples(b));
        assert!(a.iter().zip(b).all(|(x, y)| x.1 < y.1));
        let window = bank.cold_starts(1, RegionId(0), 400, 600).unwrap();
        assert!(window.iter().all(|(i, _)| (400..600).contains(i)));
        assert_eq!(
            window.len(),
            a.iter().filter(|(i, _)| (400..600).contains(i)).count()
        );
        // Region 3 left the column as deep: extending it draws on from
        // sample 1,000.
        let a = a.to_vec();
        bank.ensure(
            &Need::new(Site::Node(1), Prim::Cold, cold(&curve, 0)),
            1_200,
        );
        assert_eq!(Some(&a[..]), bank.cold_starts(1, RegionId(0), 0, 1_000));
        assert_eq!(bank.cold_starts(1, RegionId(0), 0, 1_201), None);
        assert_eq!(bank.cold_starts(1, RegionId(4), 0, 1), None);
    }

    #[test]
    fn quotients_are_kept_per_transfer_site_and_bandwidth() {
        let mut bank = shaped(6);
        let (intra, inter) = (100.0e6, 30.0e6);
        let edge = Derived::quotient(Site::Edge(1), inter);
        assert_eq!(bank.derived(edge, 0), None);
        bank.publish(edge, 0, &[1.0, 2.0]);
        bank.publish(Derived::quotient(Site::Edge(1), intra), 0, &[3.0]);
        bank.publish(Derived::quotient(Site::Entry, inter), 0, &[4.0]);
        // A second publication of samples already held appends nothing.
        bank.publish(edge, 0, &[9.0, 9.0, 5.0]);
        assert_eq!(bank.derived(edge, 3), Some(&[1.0, 2.0, 5.0][..]));
        let intra_edge = Derived::quotient(Site::Edge(1), intra);
        assert_eq!(bank.derived(intra_edge, 1), Some(&[3.0][..]));
        assert_eq!(
            bank.derived(Derived::quotient(Site::Edge(0), inter), 0),
            None
        );
        let entry = Derived::quotient(Site::Entry, inter);
        assert_eq!(bank.derived(entry, 1), Some(&[4.0][..]));
    }
}
