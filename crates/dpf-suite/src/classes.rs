//! The NAS-style problem-class axis, suite-side.
//!
//! The class descriptor itself ([`ProblemClass`]) lives in `dpf-core` so
//! runners can scale shapes from it; this module re-exports it and adds
//! the human-facing description of the scaling rules that the campaign
//! documentation embeds.

pub use dpf_core::class::ProblemClass;

/// A Markdown table describing each class and the two scaling rules
/// every registry runner derives its shapes from.
pub fn classes_markdown() -> String {
    let mut s = String::from(
        "| class | index | pow2(base) | linear(base) | intent |\n\
         |-------|-------|------------|--------------|--------|\n",
    );
    let intents = [
        "smoke test; base parameters (`--size small`)",
        "workstation-scale",
        "first benchmark-grade class",
        "benchmark-grade, one step up",
        "benchmark-grade, largest",
    ];
    for (c, intent) in ProblemClass::ALL.iter().zip(intents) {
        s.push_str(&format!(
            "| {c} | {} | base << {} | base x {} | {intent} |\n",
            c.index(),
            c.index(),
            c.index() + 1,
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_markdown_lists_all_five() {
        let md = classes_markdown();
        for c in ProblemClass::ALL {
            assert!(md.contains(&format!("| {c} |")), "missing class {c}");
        }
        assert!(md.contains("base parameters (`--size small`)"));
    }
}
