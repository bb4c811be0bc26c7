//! AS placement: which autonomous system each planned FTP host lands in.
//!
//! [`plan_world`](crate::plan_world) places every host with a weighted
//! draw over the world's AS slots. Slot `j` weighs
//! `quota_j.max(0.0) * affinity(kind_j, host)`, where the quota is the
//! slot's anonymous or other quota (anonymous hosts are all planned
//! first), and the chosen slot's quota then falls by exactly 1.0. The
//! draw is [`weighted_index`]: sum the weights left to right, draw
//! `r`, and subtract the weights from `r * total` until nothing is
//! left.
//!
//! The slot count grows with the world (`n / 40` tail ASes), so one pass
//! over every slot per host makes planning quadratic. [`Placement`]
//! answers each draw from Fenwick trees over the weights instead, in
//! O(log slots), and takes the tree's answer only when a floating-point
//! error bound proves the sequential pass would pick the same slot
//! (see [`Placement::pick`]). Otherwise it runs that pass. Either way
//! the RNG draws and the chosen slot are exactly those of
//! [`weighted_index`] over the full weight vector, so every world is
//! the one the sequential pass plans.

use crate::population::AsSlot;
use crate::rates::Category;
use netsim::AsKind;
use rand::rngs::StdRng;
use rand::Rng;

/// Unit roundoff of `f64`, 2⁻⁵³: a rounded operation returns its exact
/// result times `1 + δ`, with `|δ| <= EPS`.
const EPS: f64 = f64::EPSILON / 2.0;

/// Affinity between AS kinds and host categories, used as a weight
/// multiplier when placing hosts (reproduces Table III's kind mix).
pub(crate) fn affinity(kind: AsKind, category: Category, provider_device: bool) -> f64 {
    match (kind, category) {
        (AsKind::Isp, Category::Embedded) => {
            if provider_device {
                12.0
            } else {
                4.0
            }
        }
        (AsKind::Hosting, Category::Embedded) => 0.05,
        (AsKind::Hosting, Category::Hosted) => 6.0,
        (AsKind::Isp, Category::Hosted) => 0.02,
        (AsKind::Academic, _) => 0.7,
        _ => 1.0,
    }
}

/// Index drawn from `weights` with probability proportional to each
/// weight, or uniformly when they sum to zero or less.
pub(crate) fn weighted_index(rng: &mut StdRng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return rng.random_range(0..weights.len());
    }
    scan_index(weights, total, rng.random::<f64>())
}

/// [`weighted_index`]'s pick once `r` is drawn: subtracts the weights
/// from `r * total`, left to right, and returns the first index where
/// nothing is left (the last index if that never happens).
fn scan_index(weights: &[f64], total: f64, r: f64) -> usize {
    let mut x = r * total;
    for (i, w) in weights.iter().enumerate() {
        x -= w;
        if x <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

/// The four kinds of host [`affinity`] tells apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HostClass {
    /// Embedded, on a provider device.
    ProviderDevice,
    /// Any other embedded host.
    Device,
    /// Hosted.
    Hosted,
    /// Generic or unknown.
    Other,
}

impl HostClass {
    const ALL: [HostClass; 4] =
        [HostClass::ProviderDevice, HostClass::Device, HostClass::Hosted, HostClass::Other];

    /// The class of a host of `category`; `provider_device` marks an
    /// embedded host on a provider device.
    pub(crate) fn of(category: Category, provider_device: bool) -> Self {
        match category {
            Category::Embedded if provider_device => HostClass::ProviderDevice,
            Category::Embedded => HostClass::Device,
            Category::Hosted => HostClass::Hosted,
            Category::Generic | Category::Unknown => HostClass::Other,
        }
    }

    /// A host of this class as [`affinity`] takes it. Every host of a
    /// class gets the same affinity from every AS kind.
    fn representative(self) -> (Category, bool) {
        match self {
            HostClass::ProviderDevice => (Category::Embedded, true),
            HostClass::Device => (Category::Embedded, false),
            HostClass::Hosted => (Category::Hosted, false),
            HostClass::Other => (Category::Generic, false),
        }
    }
}

/// A Fenwick (binary indexed) tree of `f64` weights over slots
/// `0..len`. Node `k` (1-based) holds the sum of slots
/// `k - lowbit(k) .. k`, so every prefix sum adds at most
/// `log2(len) + 1` nodes, and their ranges are disjoint.
#[derive(Default)]
struct Fenwick {
    node: Vec<f64>,
}

impl Fenwick {
    /// Rebuilds the tree over `weights`, in O(len).
    fn build(&mut self, weights: impl Iterator<Item = f64>) {
        self.node.clear();
        self.node.push(0.0);
        self.node.extend(weights);
        let len = self.node.len();
        for k in 1..len {
            let parent = k + (k & k.wrapping_neg());
            if parent < len {
                self.node[parent] += self.node[k];
            }
        }
    }

    /// Adds `delta` to `slot`'s weight and returns the largest magnitude
    /// a node it touched ends at.
    fn add(&mut self, slot: usize, delta: f64) -> f64 {
        let mut largest = 0.0f64;
        let mut k = slot + 1;
        while k < self.node.len() {
            self.node[k] += delta;
            largest = largest.max(self.node[k].abs());
            k += k & k.wrapping_neg();
        }
        largest
    }

    /// The sum of every slot's weight.
    fn total(&self) -> f64 {
        let mut sum = 0.0;
        let mut k = self.node.len() - 1;
        while k > 0 {
            sum += self.node[k];
            k &= k - 1;
        }
        sum
    }

    /// The first slot whose prefix sum reaches `y` — the smallest `i`
    /// with `sum(0..=i) >= y`, or `len` when no slot's does — and the sum
    /// of the slots before it, `sum(0..i)`.
    fn search(&self, y: f64) -> (usize, f64) {
        let len = self.node.len() - 1;
        let (mut pos, mut before) = (0, 0.0);
        let mut step = if len == 0 { 0 } else { 1 << len.ilog2() };
        while step > 0 {
            let next = pos + step;
            if next <= len && before + self.node[next] < y {
                pos = next;
                before += self.node[next];
            }
            step >>= 1;
        }
        (pos, before)
    }
}

/// Draws each planned host's AS slot in O(log slots), with exactly the
/// RNG draws and the slot of [`weighted_index`] over every slot's
/// weight.
///
/// It keeps one Fenwick tree per [`HostClass`] over that class's slot
/// weights. A draw charges the chosen slot in all four. The trees are
/// rebuilt from the exact weights when the phase switches from
/// anonymous to other hosts, and after every `slots` charges, which
/// bounds the rounding error the charges pile up at an amortized O(1)
/// per draw.
#[derive(Default)]
pub(crate) struct Placement {
    /// The quota the trees weigh: `Some(true)` for the anonymous one.
    phase: Option<bool>,
    /// Each slot's affinity for each class, in [`HostClass::ALL`] order.
    affinity: Vec<[f64; 4]>,
    trees: [Fenwick; 4],
    /// Slots of positive weight, per class. The sequential total is
    /// `<= 0.0` exactly when this is zero.
    positive: [usize; 4],
    /// Per class, a bound on the error that any of the tree's prefix
    /// sums carries from its build and from the charges since.
    drift: [f64; 4],
    /// Charges since the trees were last built.
    charges: usize,
    /// The weight vector of the sequential pass, reused.
    weights: Vec<f64>,
    /// Draws the trees could not certify, answered by the sequential
    /// pass.
    pub(crate) fallbacks: u64,
}

impl Placement {
    /// Draws the slot of one host of `class` and charges it: the slot's
    /// quota for the host's phase (`quota_anon` for an anonymous host,
    /// `quota_other` otherwise) falls by exactly 1.0.
    pub(crate) fn draw(
        &mut self,
        rng: &mut StdRng,
        slots: &mut [AsSlot],
        anonymous: bool,
        class: HostClass,
    ) -> usize {
        if self.phase != Some(anonymous) {
            self.phase = Some(anonymous);
            self.affinity = slots
                .iter()
                .map(|s| {
                    HostClass::ALL.map(|c| {
                        let (category, provider_device) = c.representative();
                        affinity(s.kind, category, provider_device)
                    })
                })
                .collect();
            self.rebuild(slots);
        }
        let c = class as usize;
        let ix = if self.positive[c] == 0 {
            rng.random_range(0..slots.len())
        } else {
            self.pick(slots, c, rng.random::<f64>())
        };
        self.charge(slots, ix);
        ix
    }

    fn anonymous(&self) -> bool {
        self.phase == Some(true)
    }

    /// Slot `ix`'s weight for class `c`, computed as the sequential
    /// pass computes it.
    fn weight(&self, slots: &[AsSlot], ix: usize, c: usize) -> f64 {
        slots[ix].quota(self.anonymous()).max(0.0) * self.affinity[ix][c]
    }

    /// Builds every tree from the exact weights.
    fn rebuild(&mut self, slots: &[AsSlot]) {
        let anonymous = self.anonymous();
        let n = slots.len() as f64;
        for c in 0..HostClass::ALL.len() {
            let weights =
                slots.iter().zip(&self.affinity).map(|(s, a)| s.quota(anonymous).max(0.0) * a[c]);
            self.positive[c] = weights.clone().filter(|&w| w > 0.0).count();
            self.trees[c].build(weights);
            // A node sums at most `n` non-negative weights, so it is
            // within γ_n·(its exact sum) of it, γ_n < 1.01·n·EPS. A
            // prefix sum's nodes cover disjoint ranges: their errors add
            // up to at most γ_n times the exact total.
            self.drift[c] = 2.0 * (n + 1.0) * EPS * self.trees[c].total().abs();
        }
        self.charges = 0;
    }

    /// Charges slot `ix` one host: its quota falls by 1.0, and every
    /// class's tree follows.
    fn charge(&mut self, slots: &mut [AsSlot], ix: usize) {
        let quota = slots[ix].quota_mut(self.anonymous());
        let (old, new) = (quota.max(0.0), (*quota - 1.0).max(0.0));
        *quota -= 1.0;
        for c in 0..HostClass::ALL.len() {
            let a = self.affinity[ix][c];
            let (w_old, w_new) = (old * a, new * a);
            if w_old == w_new {
                continue;
            }
            self.positive[c] =
                self.positive[c] - usize::from(w_old > 0.0) + usize::from(w_new > 0.0);
            let delta = w_new - w_old;
            let largest = self.trees[c].add(ix, delta);
            // Of the nodes this touches, a prefix sum adds at most one
            // (the one whose range holds `ix`). That node is off by the
            // rounding of `delta` and of its own addition.
            self.drift[c] += 2.0 * EPS * (delta.abs() + largest);
        }
        self.charges += 1;
        if self.charges >= slots.len() {
            self.rebuild(slots);
        }
    }

    /// The slot the sequential pass picks for class `c` and draw `r`,
    /// taken from the class's tree when the error bound certifies it.
    ///
    /// Why a certified slot is the sequential pass's slot. Let `w_i` be
    /// the exact weights, `S(i) = w_0 + … + w_{i-1}` exactly, `S =
    /// S(n)`, `u = EPS`, and `L` the nodes a prefix sum adds. The pass
    /// computes `T_s` (the weights summed left to right), `x = fl(r ·
    /// T_s)`, then `x_i = fl(x_{i-1} - w_i)`, and returns the first `i`
    /// with `x_i <= 0`. Let `H = 2·(|T| + drift)`, which bounds `S`.
    ///
    /// 1. Tree sums. The total `T` and the search's `before` each add at
    ///    most `L` nodes of disjoint ranges. Each is off its exact value
    ///    by at most `drift` plus the rounding of its additions,
    ///    `1.01·(L+1)·u·H`.
    /// 2. The sequential total: `|T_s - S| <= γ_n·S <= 1.01·n·u·H`.
    /// 3. The target: `y = fl(r·T)` against `x = fl(r·T_s)`, with
    ///    `r < 1`: `|y - x| <= |T - T_s| + u·(T + T_s)`, which is (1)
    ///    plus (2) plus `2.02·u·H`.
    /// 4. The subtraction chain. While it runs, `x_{k-1} > 0` is at most
    ///    `x` plus the error so far, so step `k` errs by at most
    ///    `u·(x + w_k)`, grown by `(1+u)^k`. Hence `x_i = x - S(i+1) +
    ///    e_i` with `|e_i| <= 1.01·u·(n·x + S) <= 1.02·(n+1)·u·H`.
    ///
    /// The pass returns `i` if `S(i) + |e| < x` (no earlier `x_k`
    /// reaches 0, as `S` only grows) and `S(i+1) - |e| >= x` (`x_i`
    /// does). The search gives `before ≈ S(i)` within (1), and
    /// `after = fl(before + w_i) ≈ S(i+1)` within (1) plus `u·H`. So it
    /// suffices that `y - before` and `after - y`, each computed with
    /// one more rounding of at most `u·H`, exceed (1) + (3) + (4) plus
    /// those two roundings: `2·drift + (2.03·n + 2.02·L + 7.06)·u·H`.
    /// `bound` is larger. This covers `x` near 0 (`before` is 0 for the
    /// first slot), near `T_s` (`after` is the total for the last
    /// positive slot) and near every boundary, zero-weight slots
    /// included; those draws run the sequential pass.
    fn pick(&mut self, slots: &[AsSlot], c: usize, r: f64) -> usize {
        let tree = &self.trees[c];
        let total = tree.total();
        let y = r * total;
        let (ix, before) = tree.search(y);
        if ix < slots.len() {
            let n = slots.len() as f64;
            let levels = f64::from(usize::BITS - slots.len().leading_zeros());
            let h = 2.0 * (total.abs() + self.drift[c]);
            let bound = 2.0 * self.drift[c] + 4.0 * (n + levels + 4.0) * EPS * h;
            let after = before + self.weight(slots, ix, c);
            if y - before > bound && after - y > bound {
                return ix;
            }
        }
        self.fallbacks += 1;
        let anonymous = self.anonymous();
        self.weights.clear();
        self.weights.extend(
            slots.iter().zip(&self.affinity).map(|(s, a)| s.quota(anonymous).max(0.0) * a[c]),
        );
        let total: f64 = self.weights.iter().sum();
        scan_index(&self.weights, total, r)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::SeedableRng;

    /// The placement step as it was before [`Placement`], verbatim: a
    /// weight for every slot, one weighted draw over all of them, then
    /// the charge. The oracle the trees are held to.
    pub(crate) fn place_by_scan(
        rng: &mut StdRng,
        slots: &mut [AsSlot],
        anonymous: bool,
        category: Category,
        provider_device: bool,
    ) -> usize {
        let weights: Vec<f64> = slots
            .iter()
            .map(|s| {
                let quota = if anonymous { s.quota_anon } else { s.quota_other };
                quota.max(0.0) * affinity(s.kind, category, provider_device)
            })
            .collect();
        let slot_ix = scan_weighted_index(rng, &weights);
        let slot = &mut slots[slot_ix];
        if anonymous {
            slot.quota_anon -= 1.0;
        } else {
            slot.quota_other -= 1.0;
        }
        slot_ix
    }

    /// `weighted_index` as it was before [`Placement`], verbatim.
    fn scan_weighted_index(rng: &mut StdRng, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return rng.random_range(0..weights.len());
        }
        let mut x = rng.random::<f64>() * total;
        for (i, w) in weights.iter().enumerate() {
            x -= w;
            if x <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// [`scan_weighted_index`] after its draw, with `r` given.
    fn scan_with(weights: &[f64], r: f64) -> usize {
        let total: f64 = weights.iter().sum();
        let mut x = r * total;
        for (i, w) in weights.iter().enumerate() {
            x -= w;
            if x <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    const KINDS: [AsKind; 4] = [AsKind::Hosting, AsKind::Isp, AsKind::Academic, AsKind::Other];
    const HOSTS: [(Category, bool); 5] = [
        (Category::Embedded, true),
        (Category::Embedded, false),
        (Category::Hosted, false),
        (Category::Generic, false),
        (Category::Unknown, false),
    ];

    /// A quota of one of the shapes that make draws hard: zero, spent,
    /// tiny (down to weights that underflow to zero), tied integers,
    /// and fractions that no binary float holds exactly.
    fn quota(rng: &mut StdRng) -> f64 {
        match rng.random_range(0..8) {
            0 => 0.0,
            1 => -f64::from(rng.random_range(0..3u32)) - 0.5,
            2 => [1e-300, 5e-324, 1e-9, 0.3][rng.random_range(0..4usize)],
            3 | 4 => f64::from(rng.random_range(1..4u32)),
            5 => f64::from(rng.random_range(1..2_000u32)) * 0.1,
            _ => rng.random::<f64>() * 40.0,
        }
    }

    /// Random slots: `len` of them, kinds and both quotas drawn.
    fn slots(rng: &mut StdRng, len: usize) -> Vec<AsSlot> {
        (0..len)
            .map(|_| {
                let kind = KINDS[rng.random_range(0..KINDS.len())];
                AsSlot::with_quotas(kind, quota(rng), quota(rng))
            })
            .collect()
    }

    /// The tree placement and the sequential pass, driven through the
    /// same quota and affinity states and the same RNG streams, pick
    /// the same slot on every draw, leave the same quotas, and draw the
    /// RNG alike: across phase switches, rebuilds, zero and tied
    /// weights, tiny quotas, and draws after every quota is spent.
    #[test]
    fn draws_match_the_sequential_pass() {
        let mut gen = StdRng::seed_from_u64(0x91ace);
        for case in 0..300 {
            let len = [1, 2, 3, 7, 40, 130, 300][case % 7];
            let mut tree_slots = slots(&mut gen, len);
            let mut scan_slots: Vec<AsSlot> = tree_slots
                .iter()
                .map(|s| AsSlot::with_quotas(s.kind, s.quota_anon, s.quota_other))
                .collect();
            let seed = gen.random::<u64>();
            let (mut tree_rng, mut scan_rng) =
                (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let mut placement = Placement::default();
            let mut anonymous = true;
            for draw in 0..3 * len + 20 {
                if gen.random_bool(0.02) {
                    anonymous = !anonymous;
                }
                let (category, provider) = HOSTS[gen.random_range(0..HOSTS.len())];
                let class = HostClass::of(category, provider);
                let got = placement.draw(&mut tree_rng, &mut tree_slots, anonymous, class);
                let want =
                    place_by_scan(&mut scan_rng, &mut scan_slots, anonymous, category, provider);
                assert_eq!(got, want, "case {case}, draw {draw}");
            }
            assert_eq!(tree_rng.random::<u64>(), scan_rng.random::<u64>(), "case {case}");
            for (a, b) in tree_slots.iter().zip(&scan_slots) {
                assert_eq!(a.quota_anon.to_bits(), b.quota_anon.to_bits(), "case {case}");
                assert_eq!(a.quota_other.to_bits(), b.quota_other.to_bits(), "case {case}");
            }
        }
    }

    /// `r` values whose target `r * total` lands within rounding
    /// distance of 0, of the total, and of every slot boundary, around
    /// the error bound's edge, and mid-slot: the tree answers the draws
    /// it can certify and the sequential pass the rest, and every answer
    /// is the sequential pass's.
    #[test]
    fn draws_near_boundaries_match_the_sequential_pass() {
        let mut gen = StdRng::seed_from_u64(0xb0a7d);
        let (mut fallbacks, mut certified) = (0u64, 0u64);
        for case in 0..24 {
            let len = [2, 5, 40, 120][case % 4];
            let mut slots = slots(&mut gen, len);
            let mut placement = Placement::default();
            let anonymous = case % 2 == 0;
            let mut rng = StdRng::seed_from_u64(case as u64);
            // Some charges first, so the trees carry update error.
            for _ in 0..len / 2 + 1 {
                let class = HostClass::ALL[gen.random_range(0..4usize)];
                placement.draw(&mut rng, &mut slots, anonymous, class);
            }
            for class in HostClass::ALL {
                let c = class as usize;
                let (category, provider) = class.representative();
                let weights: Vec<f64> = slots
                    .iter()
                    .map(|s| s.quota(anonymous).max(0.0) * affinity(s.kind, category, provider))
                    .collect();
                let total: f64 = weights.iter().sum();
                if total <= 0.0 {
                    assert_eq!(placement.positive[c], 0, "case {case}");
                    continue;
                }
                assert!(placement.positive[c] > 0, "case {case}");
                let mut targets = vec![0.0, 5e-324, 1e-300, 1e-17, EPS, 1.0 - EPS];
                let mut prefix = 0.0;
                for w in &weights {
                    targets.push((prefix + w / 2.0) / total);
                    prefix += w;
                    let edge = prefix / total;
                    targets.push(edge);
                    for off in [1e-13, 1e-12, 1e-11] {
                        targets.extend([edge - off, edge + off]);
                    }
                }
                for target in targets {
                    let mut r = target;
                    for _ in 0..4 {
                        r = r.next_down();
                    }
                    for _ in 0..8 {
                        if (0.0..1.0).contains(&r) {
                            let before = placement.fallbacks;
                            let got = placement.pick(&slots, c, r);
                            assert_eq!(got, scan_with(&weights, r), "case {case}, r {r:e}");
                            fallbacks += placement.fallbacks - before;
                            certified += u64::from(placement.fallbacks == before);
                        }
                        r = r.next_up();
                    }
                }
            }
        }
        assert!(fallbacks > 0 && certified > 0, "fallbacks {fallbacks}, certified {certified}");
    }
}
