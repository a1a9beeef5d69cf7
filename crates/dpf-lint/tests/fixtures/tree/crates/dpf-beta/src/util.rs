// Mini-tree fixture crate "beta": a raw clock read above a NaN-dropping
// fold. Rules run in table order, so the fold's diagnostic comes out of
// the file first and the tree walk has to sort the two by line.

pub fn stamp() -> std::time::Instant {
    std::time::Instant::now()
}

pub fn worst(errs: &[f64]) -> f64 {
    errs.iter().copied().fold(0.0f64, f64::max)
}
