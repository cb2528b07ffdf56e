//! The correctness gate.  Every answer the benchmark times is compared with
//! a reference answer computed outside the timed region; every mismatch,
//! `Err` return and shed query counts as a failed operation, and a run with
//! any failure reports `"correct": false` and exits non-zero.

use std::fmt::Debug;

use maxrs::{Query, QueryAnswer};

/// How many failure descriptions a run keeps for its report.
const KEPT_FAILURES: usize = 8;

/// Operation and failure counts of one run.
#[derive(Debug, Default)]
pub struct Gate {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Gate {
    /// Counts one attempted operation (a query, or an event chunk).
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Counts a failed operation: an `Err` return or a shed query.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(what.into());
        }
    }

    /// Compares an answer with its reference; a mismatch is a failure.
    pub fn check<T: PartialEq + Debug>(&mut self, what: &str, got: &T, want: &T) -> bool {
        let ok = got == want;
        if !ok {
            self.fail(format!("{what}: got {got:?}, expected {want:?}"));
        }
        ok
    }

    /// Runs each query of `mix` once, untimed, gating its answer: fills
    /// caches and finishes lazy set-up so the timed phase starts warm.
    pub fn warm_up<E: std::fmt::Display>(
        &mut self,
        mix: &[Query],
        expected: &[QueryAnswer],
        mut run: impl FnMut(&Query) -> Result<QueryAnswer, E>,
    ) {
        for (query, want) in mix.iter().zip(expected) {
            self.attempt();
            match run(query) {
                Ok(answer) => {
                    self.check(query.name(), &answer, want);
                }
                Err(e) => self.fail(format!("warm-up {}: {e}", query.name())),
            }
        }
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations failed (errors, shed queries and wrong answers).
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// `failed / attempted`.
    pub fn error_rate(&self) -> f64 {
        crate::common::ratio(self.failed as f64, self.attempted as f64)
    }

    /// The first few failure descriptions.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::engine;
    use maxrs::datagen::{Dataset, DatasetKind};
    use maxrs::{RectSize, StorageBackend};

    #[test]
    fn a_wrong_expected_answer_fails_the_run() {
        // Above the 6,553-record buffer, so the answer comes from the
        // external pipeline, as in the workloads.
        let objects = Dataset::generate(DatasetKind::Uniform, 8_000, 3).objects;
        let prepared = engine(StorageBackend::Sim, 2).prepare(&objects).unwrap();
        let query = Query::max_rs(RectSize::square(20_000.0));
        let run = prepared.run(&query).unwrap();

        let reference = engine(StorageBackend::Sim, 2)
            .prepare(&objects)
            .unwrap()
            .run(&query)
            .unwrap()
            .answer;
        let mut wrong = reference.clone();
        if let QueryAnswer::MaxRs(best) = &mut wrong {
            best.total_weight += 1.0;
        }

        let mut gate = Gate::default();
        gate.attempt();
        assert!(gate.check("max-rs", &run.answer, &reference));
        assert_eq!(gate.failed(), 0);

        gate.attempt();
        assert!(!gate.check("max-rs", &run.answer, &wrong));
        assert_eq!(gate.failed(), 1);
        assert_eq!(gate.error_rate(), 0.5);
        assert!(gate.failures()[0].starts_with("max-rs: got"));
    }
}
