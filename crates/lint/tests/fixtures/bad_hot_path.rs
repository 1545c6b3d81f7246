//! Seeded H-rule fixture: a parallel worker reaches allocation, clone
//! and lock sites through one level of calls.

pub fn drive(xs: &mut [f64]) {
    par_map_mut(xs, |_, x| helper(*x));
}

fn helper(x: f64) -> f64 {
    let mut out = Vec::new();
    out.push(scale(x).clone());
    let label = format!("x = {x}");
    let guard = REGISTRY.lock();
    println!("{label} {guard}");
    out[0] + label.len() as f64
}

fn scale(x: f64) -> f64 {
    let doubled = vec![x; 2]; // vaem-lint: allow(H1) fixture waiver: pins the semantic-merge waiver flow
    doubled[0] * 2.0
}
