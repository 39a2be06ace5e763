use super::*;
use crate::sparse::WorkVec;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A random FTRAN result for a pivot on `pos`, as the engine hands it to
/// [`EtaFile::push`]: a pivot of at least 1 in magnitude, and elsewhere a
/// few values of at most 1/4, exact zeros and entries under the drop
/// tolerance, tracked ascending or flagged dense.
fn random_w(rng: &mut StdRng, m: usize, pos: usize) -> WorkVec {
    let mut w = WorkVec::new(m);
    let fill = rng.random_range(1..8usize);
    for i in 0..m {
        let v = if i == pos {
            let mag = rng.random_range(1.0..3.0);
            if rng.random_range(0..2) == 0 {
                mag
            } else {
                -mag
            }
        } else if rng.random_range(0..m) < fill {
            match rng.random_range(0..6) {
                0 => 0.0,
                1 => 1e-13,
                _ => rng.random_range(-0.25..0.25),
            }
        } else {
            continue;
        };
        w.set(i as u32, v);
    }
    if rng.random_range(0..4) == 0 {
        w.make_dense();
    }
    w
}

/// Eta `k`'s arena value at position `p`, as the table must hold it: the
/// stored entry, or 0.0 when there is none or `p` is its pivotal position.
fn arena_value(f: &EtaFile, k: usize, p: u32) -> f64 {
    let (at, val) = f.entries_of(k);
    at.iter().position(|&i| i == p).map_or(0.0, |e| val[e])
}

/// Every (eta, pivotal position) entry of the table and its bit against
/// the arena, the column index against the pivotal list, and every arena
/// list ascending and without its pivot.
fn assert_table_matches_arena(f: &EtaFile, m: usize) {
    assert!(f.stride > f.pivotal.len(), "no spare column");
    for k in 0..f.len() {
        let at = f.entries_of(k).0;
        assert!(at.windows(2).all(|p| p[0] < p[1]), "eta {k} not ascending");
        assert!(!at.contains(&f.head(k).pos), "eta {k} lists its pivot");
    }
    assert_eq!(f.table.len(), f.len() * f.stride);
    assert_eq!(f.words, f.stride.div_ceil(64));
    assert_eq!(f.nonzero.len(), f.len() * f.words);
    for (j, &p) in f.pivotal.iter().enumerate() {
        assert_eq!(f.col_of[p as usize], j as u32);
        for k in 0..f.len() {
            let (got, want) = (f.table_at(k, j), arena_value(f, k, p));
            assert_eq!(got.to_bits(), want.to_bits(), "eta {k}, position {p}");
            let bit = f.nonzero[k * f.words + j / 64] >> (j % 64) & 1;
            assert_eq!(bit == 1, want != 0.0, "eta {k}, position {p}: bit");
        }
    }
    let heads: std::collections::BTreeSet<u32> = f.heads.iter().map(|h| h.pos).collect();
    assert_eq!(
        heads.len(),
        f.pivotal.len(),
        "pivotal positions are the heads"
    );
    for p in 0..m as u32 {
        assert_eq!(heads.contains(&p), f.col_of[p as usize] != ETA_NONE);
    }
}

/// Equal as numbers: a cancelled zero's sign may differ, nothing else.
fn same(a: f64, b: f64) -> bool {
    a == b || (a.is_nan() && b.is_nan())
}

/// Every unit BTRAN through `f` against the full gather over a dense
/// vector: equal values, and a pattern that lists every nonzero, each
/// once.
fn assert_unit_btran_matches_gather(f: &mut EtaFile, m: usize) {
    let mut c = WorkVec::new(m);
    for pos in 0..m {
        let mut want = vec![0.0; m];
        want[pos] = 1.0;
        f.btran(&mut want);
        c.clear();
        c.set(pos as u32, 1.0);
        f.btran_unit(&mut c);
        assert!(!c.is_dense());
        assert!(f.live_bits.iter().all(|&b| b == 0), "live bits left set");
        let mut seen = vec![false; m];
        for &i in &c.pattern {
            assert!(!std::mem::replace(&mut seen[i as usize], true), "{i} twice");
        }
        for i in 0..m {
            assert!(
                same(c.values[i], want[i]),
                "pos {pos}, entry {i}: {} against {}",
                c.values[i],
                want[i]
            );
            assert!(
                seen[i] || want[i] == 0.0,
                "pos {pos}: nonzero {i} untracked"
            );
        }
    }
}

/// The FTRAN eta pass on random tracked and dense inputs against the
/// same pass on a dense copy, with the tracked pattern exactly the
/// indices written, ascending.
fn assert_ftran_matches_dense(f: &EtaFile, rng: &mut StdRng, m: usize) {
    for _ in 0..8 {
        let mut w = WorkVec::new(m);
        for _ in 0..rng.random_range(1..4) {
            let i = rng.random_range(0..m as u32);
            w.set(i, rng.random_range(-1.0..1.0));
        }
        let mut dense = w.clone();
        dense.make_dense();
        f.ftran(&mut dense);
        f.ftran(&mut w);
        assert!(w.pattern.windows(2).all(|p| p[0] < p[1]), "not ascending");
        for i in 0..m {
            assert!(same(w.values[i], dense.values[i]), "entry {i}");
            assert!(w.marked(i as u32) || w.values[i] == 0.0, "{i} untracked");
        }
    }
}

/// Builds files of every shape the engine makes and holds the table, the
/// unit BTRAN and the FTRAN pass to the arena and the dense passes after
/// each eta: positions pivoted on twice (or more) in one file, a `pos`
/// that is and one that is not pivotal, a new pivotal position whose
/// column its BTRAN gathered and one whose column it did not, and files
/// past 64 and 128 distinct pivotal positions (a bit word's and two
/// words' worth).
#[test]
fn pivotal_table_and_passes_match_the_arena_and_the_dense_passes() {
    let mut rng = StdRng::seed_from_u64(0xe7a);
    let mut f = EtaFile::new(usize::MAX);
    for (m, etas) in [(1, 3), (5, 12), (40, 60), (300, 300)] {
        f.ensure_rows(m);
        f.clear();
        for k in 0..etas {
            // A third of the pivots reuse an earlier pivotal position.
            let pos = if k > 0 && rng.random_range(0..3) == 0 {
                f.head(rng.random_range(0..k)).pos as usize
            } else {
                rng.random_range(0..m)
            };
            if rng.random_range(0..2) == 0 {
                // As the engine does: the pivot's BTRAN, then its eta.
                let mut c = WorkVec::new(m);
                c.set(pos as u32, 1.0);
                f.btran_unit(&mut c);
            }
            let w = random_w(&mut rng, m, pos);
            f.push(pos as u32, &w);
            if k % 7 == 0 || k + 1 == etas {
                assert_table_matches_arena(&f, m);
                assert_unit_btran_matches_gather(&mut f, m);
                assert_ftran_matches_dense(&f, &mut rng, m);
            }
        }
        let twice = f.len() > f.pivotal.len();
        assert!(twice, "m = {m}: no position was pivoted on twice");
        if m == 300 {
            assert!(
                f.pivotal.len() > 128,
                "{} pivotal positions",
                f.pivotal.len()
            );
            assert!(f.pivotal.len() < m, "every position is pivotal");
        }
    }
}

/// Clearing keeps the capacity and the stride; a file reserved for its
/// etas fills without growing a buffer.
#[test]
fn reserve_covers_the_file_and_clear_keeps_it() {
    let mut rng = StdRng::seed_from_u64(7);
    let m = 200;
    let mut f = EtaFile::new(usize::MAX);
    f.ensure_rows(m);
    f.reserve(150, 150 * (m + 1));
    let caps = |f: &EtaFile| {
        (
            f.table.capacity(),
            f.pivotal.capacity(),
            f.live.capacity(),
            f.stride,
        )
    };
    let before = caps(&f);
    for round in 0..2 {
        for _ in 0..150 {
            let pos = rng.random_range(0..m);
            f.push(pos as u32, &random_w(&mut rng, m, pos));
        }
        assert_eq!(caps(&f), before, "round {round}");
        assert_table_matches_arena(&f, m);
        f.clear();
        assert!(f.col_of.iter().all(|&j| j == ETA_NONE));
    }
}
