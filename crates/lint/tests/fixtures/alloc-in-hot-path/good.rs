// Known-good: allocation happens at construction time; the hot functions
// only reuse the preallocated scratch arena.
pub struct Engine {
    scratch: Vec<f64>,
}

impl Engine {
    pub fn new(n: usize) -> Engine {
        Engine {
            scratch: vec![0.0; n],
        }
    }

    /// The solve entry borrows the engine's scratch as the pivot does.
    pub fn crash(&mut self, m: usize) {
        let mut act = std::mem::take(&mut self.scratch);
        act[..m].fill(0.0);
        self.scratch = act;
    }

    pub fn pivot(&mut self, xs: &[f64]) -> f64 {
        self.scratch.clear();
        self.scratch.extend_from_slice(xs);
        let mut acc = 0.0;
        for v in &self.scratch {
            acc += v;
        }
        acc
    }
}

pub fn setup(n: usize) -> Vec<f64> {
    // Cold path: allocating here is fine.
    vec![1.0; n]
}
