//! Selection-time live sets: which candidates of a [`CandidatePool`] are
//! still untaken, per assertion, in index order and in severity-rank
//! order, so that each draw costs O(d log n) instead of a pool rescan.
//!
//! Every draw consumes the RNG exactly as the scan-and-sort reference in
//! `tests/selection_oracle.rs` does, and picks the same candidate
//! (DESIGN.md §1.8 gives the argument; the oracle suite pins it).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::CandidatePool;

/// The lowest set bit of `j`: the span a Fenwick entry at 1-based
/// index `j` covers.
fn lowbit(j: usize) -> usize {
    j & j.wrapping_neg()
}

/// A Fenwick tree (binary indexed tree) over the liveness of positions
/// `0..len`: "find the k-th live position" and "mark a position dead"
/// in O(log len).
#[derive(Debug)]
struct LiveSet {
    /// Entry `j - 1` holds the live count of the 1-based positions
    /// `(j - lowbit(j), j]`.
    tree: Vec<usize>,
    /// Number of live positions.
    live: usize,
}

impl LiveSet {
    /// A set over `flags.len()` positions, live where the flag is set;
    /// built bottom-up in O(len).
    fn from_flags(flags: impl IntoIterator<Item = bool>) -> Self {
        let mut tree: Vec<usize> = flags.into_iter().map(usize::from).collect();
        let live = tree.iter().sum();
        for j in 1..=tree.len() {
            let covered = tree.get(j - 1).copied().unwrap_or(0);
            if let Some(parent) = tree.get_mut(j + lowbit(j) - 1) {
                *parent += covered;
            }
        }
        Self { tree, live }
    }

    /// Marks the live position `pos` dead.
    fn kill(&mut self, pos: usize) {
        self.live -= 1;
        let mut j = pos + 1;
        while let Some(count) = self.tree.get_mut(j - 1) {
            *count -= 1;
            j += lowbit(j);
        }
    }

    /// The position of the `k`-th live entry (0-based); `k < live`.
    fn nth_live(&self, k: usize) -> usize {
        // Binary lifting: the largest prefix holding at most k live
        // entries ends just before the k-th one.
        let mut pos = 0;
        let mut rem = k;
        let mut step = (self.tree.len() + 1).next_power_of_two() / 2;
        while step > 0 {
            if let Some(&count) = self.tree.get(pos + step - 1) {
                if count <= rem {
                    pos += step;
                    rem -= count;
                }
            }
            step /= 2;
        }
        pos
    }
}

/// Rank lists below this length have every partial sum of their weights
/// `1..=len` below 2^53, so the closed-form draw is exact (2^27 − 1 is
/// the largest `len` with `len(len+1)/2 < 2^53`).
const RANK_EXACT_LEN: usize = 1 << 27;

/// The total rank weight `1 + 2 + … + len`, as the scan formulation sums
/// it in `f64`: exact (and so equal to the closed form) below
/// [`RANK_EXACT_LEN`].
fn rank_total(len: usize) -> f64 {
    if len < RANK_EXACT_LEN {
        (len * (len + 1) / 2) as f64
    } else {
        (1..=len).map(|r| r as f64).sum()
    }
}

/// Where a rank-weighted draw `u ∈ [0, rank_total(len)]` lands among
/// `len ≥ 1` entries in ascending-severity order (entry `p` weighs
/// `p + 1`), as the weight-subtraction loop
///
/// ```text
/// for p in 0..len { if u < (p+1) { return p } u -= (p+1) }  return len-1
/// ```
///
/// decides it. That loop subtracts integers from `u < 2^53`, so every
/// subtraction is exact and it returns the largest `p` with
/// `p(p+1)/2 ≤ u`, clamped to `len - 1` for the fall-through at
/// `u == total`. The closed form inverts the triangular number from a
/// float estimate and fixes the estimate up with exact comparisons.
fn rank_position(u: f64, len: usize) -> usize {
    if len >= RANK_EXACT_LEN {
        let mut u = u;
        for p in 0..len {
            let w = (p + 1) as f64;
            if u < w {
                return p;
            }
            u -= w;
        }
        return len - 1;
    }
    let tri = |p: usize| (p * (p + 1) / 2) as f64;
    let mut p = ((((8.0 * u + 1.0).sqrt() - 1.0) / 2.0) as usize).min(len);
    while p < len && tri(p + 1) <= u {
        p += 1;
    }
    while p > 0 && tri(p) > u {
        p -= 1;
    }
    p.min(len - 1)
}

/// Samples `k` of `avail` uniformly, in selection order: a full
/// Fisher–Yates shuffle, truncated (the shuffle's RNG draws do not
/// depend on `k`).
pub(crate) fn shuffled_prefix(mut avail: Vec<usize>, k: usize, rng: &mut StdRng) -> Vec<usize> {
    avail.shuffle(rng);
    avail.truncate(k);
    avail
}

/// The `k` highest-scoring of `order`, best first: score descending
/// under `total_cmp`, ties by earlier index — the strict total order
/// every score-ranked path shares. A `select_nth_unstable_by` partition
/// plus a sort of the kept prefix costs O(n + k log k) and returns
/// exactly the full sort truncated to `k`, because the order is strict.
pub(crate) fn top_k_by_score<F: Fn(usize) -> f64>(
    mut order: Vec<usize>,
    k: usize,
    score: F,
) -> Vec<usize> {
    let by_score = |a: &usize, b: &usize| score(*b).total_cmp(&score(*a)).then(a.cmp(b));
    if k < order.len() {
        if let Some(last) = k.checked_sub(1) {
            order.select_nth_unstable_by(last, by_score);
        }
        order.truncate(k);
    }
    order.sort_unstable_by(by_score);
    order
}

/// An integer key that orders like [`f64::total_cmp`]: negatives (sign
/// bit set) flip entirely, non-negatives gain the top bit.
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// One assertion's fired candidates in severity-rank order.
#[derive(Debug)]
struct RankOrder {
    /// Rank → posting-list position, ascending (severity, index).
    order: Vec<usize>,
    /// Posting-list position → rank.
    rank_of: Vec<usize>,
    /// Liveness over ranks.
    live: LiveSet,
}

impl RankOrder {
    fn build(pool: &CandidatePool, m: usize, fired: &[usize], taken: &[bool]) -> Self {
        // Posting positions ascend with the candidate index, so breaking
        // severity ties by position is breaking them by index.
        let mut keyed: Vec<(u64, usize)> = fired
            .iter()
            .enumerate()
            .map(|(j, &i)| (total_order_key(pool.severity(i, m)), j))
            .collect();
        keyed.sort_unstable();
        let order: Vec<usize> = keyed.into_iter().map(|(_, j)| j).collect();
        let mut rank_of = vec![0; order.len()];
        for (rank, &j) in order.iter().enumerate() {
            if let Some(slot) = rank_of.get_mut(j) {
                *slot = rank;
            }
        }
        let live = LiveSet::from_flags(order.iter().map(|&j| {
            fired
                .get(j)
                .and_then(|&i| taken.get(i))
                .is_some_and(|&t| !t)
        }));
        Self {
            order,
            rank_of,
            live,
        }
    }
}

/// One assertion's untaken candidates within a selection call.
#[derive(Debug)]
struct AssertionLive<'p> {
    /// The pool's posting list: candidates the assertion fired on,
    /// ascending.
    fired: &'p [usize],
    /// Liveness over `fired` positions (index order).
    by_index: LiveSet,
    /// The severity-rank order, built the first time the assertion is
    /// drawn by rank in this call.
    by_rank: Option<RankOrder>,
}

/// The untaken part of a pool during one selection call: a taken flag
/// per candidate and, per assertion, Fenwick live sets over its posting
/// list in index order and (on demand) in severity-rank order. Every
/// taken candidate is dead in every live set it appears in.
#[derive(Debug)]
pub(crate) struct LiveSets<'p> {
    pool: &'p CandidatePool,
    taken: Vec<bool>,
    assertions: Vec<AssertionLive<'p>>,
}

impl<'p> LiveSets<'p> {
    /// Everything untaken: O(n + Σ fired).
    pub(crate) fn over(pool: &'p CandidatePool) -> Self {
        let assertions = (0..pool.num_assertions())
            .map(|m| {
                let fired = pool.triggered_by(m);
                AssertionLive {
                    fired,
                    by_index: LiveSet::from_flags(fired.iter().map(|_| true)),
                    by_rank: None,
                }
            })
            .collect();
        Self {
            pool,
            taken: vec![false; pool.len()],
            assertions,
        }
    }

    /// Marks candidate `i` taken and kills it in every live set of each
    /// assertion that fired on it: O(d log n). Taking a taken candidate
    /// is a no-op.
    pub(crate) fn take(&mut self, i: usize) {
        match self.taken.get_mut(i) {
            Some(t) if !*t => *t = true,
            _ => return,
        }
        for (a, &s) in self.assertions.iter_mut().zip(self.pool.context(i)) {
            let fired_at = if s > 0.0 {
                a.fired.binary_search(&i).ok()
            } else {
                None
            };
            if let Some(j) = fired_at {
                a.by_index.kill(j);
                if let Some(r) = &mut a.by_rank {
                    if let Some(&rank) = r.rank_of.get(j) {
                        r.live.kill(rank);
                    }
                }
            }
        }
    }

    /// The untaken candidates, ascending.
    pub(crate) fn untaken(&self) -> Vec<usize> {
        self.taken
            .iter()
            .enumerate()
            .filter(|(_, &t)| !t)
            .map(|(i, _)| i)
            .collect()
    }

    /// Picks one assertion uniformly among those with untaken fired
    /// candidates, then one of those candidates uniformly, and takes
    /// it. `None` (and no RNG draw) when no assertion has any left.
    ///
    /// Each `gen_range(0..len)` consumes the RNG exactly as
    /// `slice::choose` over the scanned live lists would.
    pub(crate) fn pick_uniform_from_assertions(&mut self, rng: &mut StdRng) -> Option<usize> {
        let live = self
            .assertions
            .iter()
            .filter(|a| a.by_index.live > 0)
            .count();
        if live == 0 {
            return None;
        }
        let nth = rng.gen_range(0..live);
        let a = self
            .assertions
            .iter()
            .filter(|a| a.by_index.live > 0)
            .nth(nth)?;
        let k = rng.gen_range(0..a.by_index.live);
        let i = a.fired.get(a.by_index.nth_live(k)).copied()?;
        self.take(i);
        Some(i)
    }

    /// Samples one untaken candidate assertion `m` fired on, with
    /// probability proportional to its severity *rank* among them
    /// (highest severity = highest weight), and takes it. `None` (and
    /// no RNG draw) if none remain.
    pub(crate) fn pick_by_severity_rank(&mut self, m: usize, rng: &mut StdRng) -> Option<usize> {
        let pool = self.pool;
        let taken = &self.taken;
        let a = self.assertions.get_mut(m)?;
        let len = a.by_index.live;
        if len == 0 {
            return None;
        }
        let fired = a.fired;
        let ranked = a
            .by_rank
            .get_or_insert_with(|| RankOrder::build(pool, m, fired, taken));
        let u = rng.gen_range(0.0..rank_total(len));
        let rank = ranked.live.nth_live(rank_position(u, len));
        let i = ranked
            .order
            .get(rank)
            .and_then(|&j| fired.get(j))
            .copied()?;
        self.take(i);
        Some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// The scan formulation of the rank draw (the loop in
    /// [`rank_position`]'s doc), verbatim.
    fn rank_by_subtraction(mut u: f64, len: usize) -> usize {
        for pos in 0..len {
            let w = (pos + 1) as f64;
            if u < w {
                return pos;
            }
            u -= w;
        }
        len - 1
    }

    fn below(x: f64) -> f64 {
        f64::from_bits(x.to_bits() - 1)
    }

    fn tri(p: usize) -> f64 {
        (p * (p + 1) / 2) as f64
    }

    #[test]
    fn rank_draw_matches_subtraction_at_triangular_boundaries() {
        for len in [1usize, 2, 3, 7, 64, 1000] {
            for p in 0..=len {
                // u exactly p(p+1)/2 lands on p (the fall-through clamps
                // u == total to the last entry).
                let u = tri(p);
                assert_eq!(rank_position(u, len), p.min(len - 1), "len {len} u {u}");
                assert_eq!(rank_position(u, len), rank_by_subtraction(u, len));
                if p > 0 {
                    // Just below the boundary stays on p - 1.
                    let u = below(tri(p));
                    assert_eq!(rank_position(u, len), p - 1, "len {len} u {u}");
                    assert_eq!(rank_position(u, len), rank_by_subtraction(u, len));
                }
            }
        }
    }

    #[test]
    fn rank_draw_total_is_the_fall_through() {
        for len in [1usize, 5, 99] {
            let total = rank_total(len);
            assert_eq!(total, (1..=len).map(|r| r as f64).sum::<f64>());
            assert_eq!(rank_position(total, len), len - 1);
            assert_eq!(rank_by_subtraction(total, len), len - 1);
        }
    }

    #[test]
    fn rank_draw_matches_subtraction_on_random_draws() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20_000 {
            let len = rng.gen_range(1..3000usize);
            let u = rng.gen_range(0.0..rank_total(len));
            assert_eq!(
                rank_position(u, len),
                rank_by_subtraction(u, len),
                "{u} {len}"
            );
        }
    }

    #[test]
    fn rank_draw_is_exact_at_the_largest_closed_form_length() {
        let len = RANK_EXACT_LEN - 1;
        let total = rank_total(len);
        assert!(total < 2f64.powi(53));
        assert_eq!(rank_position(total, len), len - 1);
        assert_eq!(rank_position(below(total), len), len - 1);
        assert_eq!(rank_position(below(tri(len - 1)), len), len - 2);
        assert_eq!(rank_position(tri(12_345), len), 12_345);
    }

    #[test]
    fn live_set_finds_kth_live_and_kills() {
        for len in 0..40usize {
            let flags: Vec<bool> = (0..len).map(|i| i % 3 != 1).collect();
            let mut set = LiveSet::from_flags(flags.iter().copied());
            let mut live: Vec<usize> = (0..len).filter(|&i| flags[i]).collect();
            assert_eq!(set.live, live.len());
            while !live.is_empty() {
                for (k, &pos) in live.iter().enumerate() {
                    assert_eq!(set.nth_live(k), pos, "len {len}");
                }
                let victim = live.remove(live.len() / 2);
                set.kill(victim);
                assert_eq!(set.live, live.len());
            }
        }
    }

    #[test]
    fn total_order_key_orders_like_total_cmp() {
        let xs = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            1.0,
            -1.0,
            2.5,
            f64::MAX,
            f64::MIN,
        ];
        for a in xs {
            for b in xs {
                assert_eq!(
                    total_order_key(a).cmp(&total_order_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn top_k_equals_sorted_prefix() {
        let scores = [1.0, f64::NAN, 1.0, 2.0, -0.0, 0.0, f64::NEG_INFINITY, 2.0];
        let mut full: Vec<usize> = (0..scores.len()).collect();
        full.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
        for k in 0..=scores.len() + 1 {
            let top = top_k_by_score((0..scores.len()).collect(), k, |i| scores[i]);
            assert_eq!(top, full[..k.min(full.len())].to_vec(), "k {k}");
        }
    }

    #[test]
    fn take_kills_a_candidate_in_every_list_once() {
        let pool = CandidatePool::new(
            vec![vec![1.0, 2.0], vec![0.0, 1.0], vec![3.0, 0.0]],
            vec![0.0; 3],
        )
        .unwrap();
        let mut live = LiveSets::over(&pool);
        let mut rng = StdRng::seed_from_u64(1);
        // Build assertion 1's rank order, then take its top candidate 0.
        assert!(live.pick_by_severity_rank(1, &mut rng).is_some());
        live.take(0);
        live.take(0);
        live.take(1);
        assert_eq!(live.untaken(), vec![2]);
        assert_eq!(live.pick_by_severity_rank(1, &mut rng), None);
        assert_eq!(live.pick_uniform_from_assertions(&mut rng), Some(2));
        assert_eq!(live.pick_uniform_from_assertions(&mut rng), None);
    }
}
