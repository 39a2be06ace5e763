// Known-bad: heap allocation inside simplex hot-path functions; reuse a
// preallocated scratch arena instead.
pub fn pivot(n: usize) -> Vec<f64> {
    let mut scratch = vec![0.0; n];
    scratch.push(1.0);
    scratch
}

pub fn ftran_sparse(xs: &[f64]) -> Vec<f64> {
    xs.to_vec()
}

pub fn price_full(xs: &[f64]) -> Vec<f64> {
    xs.iter().map(|x| x + 1.0).collect()
}

pub fn ratio_test(b: f64) -> Box<f64> {
    Box::new(b)
}

pub fn dual_loop(n: usize) -> Vec<u32> {
    let ids = Vec::with_capacity(n);
    ids
}

pub fn pivotal_row(touched: &[u32]) -> Vec<(u32, f64)> {
    touched.iter().map(|&j| (j, 0.0)).collect()
}

pub fn refresh_eligible(elig: &[u32], j: u32) -> Vec<u32> {
    elig.iter().copied().filter(|&e| e != j).collect()
}

pub fn sort_dedup(list: &mut Vec<u32>, n: usize) {
    let mut words = vec![0u64; n.div_ceil(64)];
    for &i in list.iter() {
        words[(i >> 6) as usize] |= 1 << (i & 63);
    }
}

pub fn crash(m: usize) -> Vec<f64> {
    vec![0.0; m]
}

pub fn warm_entry(m: usize) -> Vec<usize> {
    Vec::with_capacity(m)
}

pub fn compute_xb(work_row: &[f64]) -> Vec<f64> {
    work_row.to_vec()
}

pub fn refresh_infeasible(infeas: &[u32], pos: u32) -> Vec<u32> {
    infeas.iter().copied().filter(|&p| p != pos).collect()
}
