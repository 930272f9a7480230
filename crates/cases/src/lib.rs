//! One seeded case stream for every randomized test in the workspace.
//!
//! A *property* is a test that checks an invariant on drawn cases. Case
//! `i` of a property draws from a [`Case`] seeded `nth_seed(master, i)`,
//! so it is the same case on every run and every machine, and a larger
//! budget only appends cases.
//!
//! The budget is read once per process from `IDCA_FUZZ_SEEDS` (200 when
//! unset). A property runs its base count of cases scaled by
//! `budget / 200`, and at least one: at `IDCA_FUZZ_SEEDS=2000` every
//! property runs ten times its base count. A failing case prints the
//! property, its case index and seed, and the command that reruns it, then
//! re-raises the panic.
//!
//! ```
//! use idca_cases::property;
//!
//! fn addition_commutes() {
//!     property!(addition_commutes, master = 0xADD, cases = 64).run(|case| {
//!         let (a, b) = (case.int(0u32..1000), case.int(0u32..1000));
//!         assert_eq!(a + b, b + a);
//!     });
//! }
//! # addition_commutes();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use idca_gen::nth_seed;
use std::ffi::OsStr;
use std::ops::{Bound, Range, RangeBounds};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// The budget when `IDCA_FUZZ_SEEDS` is unset: every property runs exactly
/// its base count of cases.
const DEFAULT_BUDGET: u64 = 200;

/// The seed budget of this process: `IDCA_FUZZ_SEEDS`, or
/// [`DEFAULT_BUDGET`] when it is unset. Read once; panics when the
/// variable is set to anything but a whole number.
fn budget() -> u64 {
    static BUDGET: OnceLock<u64> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        parse_budget(std::env::var_os("IDCA_FUZZ_SEEDS").as_deref())
            .unwrap_or_else(|message| panic!("{message}"))
    })
}

fn parse_budget(value: Option<&OsStr>) -> Result<u64, String> {
    let Some(value) = value else {
        return Ok(DEFAULT_BUDGET);
    };
    value
        .to_str()
        .and_then(|text| text.parse().ok())
        .ok_or_else(|| format!("IDCA_FUZZ_SEEDS must be a whole number of seeds, got {value:?}"))
}

/// `property!(test_fn, master = SEED, cases = BASE)`: the [`Property`] of
/// the calling test, with the package and cargo target it is compiled in,
/// for the rerun command.
///
/// `test_fn` must be the calling test function; it has to name a `fn()` in
/// scope, so a misspelt name does not compile.
#[macro_export]
macro_rules! property {
    ($name:ident, master = $master:expr, cases = $base:expr) => {{
        let _: fn() = $name;
        $crate::Property {
            package: env!("CARGO_PKG_NAME"),
            // Cargo sets CARGO_TARGET_TMPDIR for integration tests only.
            target: if option_env!("CARGO_TARGET_TMPDIR").is_some() {
                concat!("--test ", env!("CARGO_CRATE_NAME"))
            } else {
                "--lib"
            },
            name: stringify!($name),
            master: $master,
            base: $base,
        }
    }};
}

/// One property: where its test lives and how its cases are drawn.
#[derive(Debug)]
pub struct Property {
    /// The test's package, for `cargo test -p`.
    pub package: &'static str,
    /// The cargo target selector of the test: `--lib` or `--test <name>`.
    pub target: &'static str,
    /// The test function.
    pub name: &'static str,
    /// The master seed: case `i` is seeded `nth_seed(master, i)`.
    pub master: u64,
    /// The case count at the default budget of 200.
    pub base: u64,
}

impl Property {
    /// Runs `check` on every case of the process's budget.
    ///
    /// # Panics
    ///
    /// When a case panics, after printing the case and its rerun command,
    /// and when `IDCA_FUZZ_SEEDS` is set to anything but a whole number.
    pub fn run(&self, check: impl FnMut(&mut Case)) {
        self.run_at(budget(), check);
    }

    /// The number of cases at `budget`: the base count scaled by
    /// `budget / DEFAULT_BUDGET`, and at least one.
    fn cases_at(&self, budget: u64) -> u64 {
        (self.base.saturating_mul(budget) / DEFAULT_BUDGET).max(1)
    }

    fn run_at(&self, budget: u64, mut check: impl FnMut(&mut Case)) {
        for index in 0..self.cases_at(budget) {
            let mut case = Case {
                index,
                seed: nth_seed(self.master, index),
                draws: 0,
            };
            if let Err(panic) = catch_unwind(AssertUnwindSafe(|| check(&mut case))) {
                eprintln!("{}", self.failure(budget, &case));
                resume_unwind(panic);
            }
        }
    }

    fn failure(&self, budget: u64, case: &Case) -> String {
        format!(
            "property `{}` failed at case {} (seed {:#018x}); rerun it with:\n\
             IDCA_FUZZ_SEEDS={budget} cargo test -p {} {} {}",
            self.name, case.index, case.seed, self.package, self.target, self.name
        )
    }
}

/// The draws of one case: a stream of `nth_seed(seed, k)` for `k = 1, 2, ..`.
#[derive(Debug)]
pub struct Case {
    index: u64,
    seed: u64,
    draws: u64,
}

impl Case {
    /// The case's index in its property.
    #[must_use]
    pub fn index(&self) -> u64 {
        self.index
    }

    /// The case's seed, `nth_seed(master, index)`.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The next 64 bits of the stream.
    pub fn u64(&mut self) -> u64 {
        self.draws += 1;
        nth_seed(self.seed, self.draws)
    }

    /// An integer in `range`, which must be bounded and not empty.
    pub fn int<T>(&mut self, range: impl RangeBounds<T>) -> T
    where
        T: Copy + TryInto<i128> + TryFrom<i128>,
    {
        let widen = |value: T| -> i128 {
            value
                .try_into()
                .ok()
                .expect("every primitive integer fits an i128")
        };
        let low = match range.start_bound() {
            Bound::Included(&low) => widen(low),
            Bound::Excluded(&low) => widen(low) + 1,
            Bound::Unbounded => panic!("Case::int needs a bounded range"),
        };
        let high = match range.end_bound() {
            Bound::Included(&high) => widen(high),
            Bound::Excluded(&high) => widen(high) - 1,
            Bound::Unbounded => panic!("Case::int needs a bounded range"),
        };
        assert!(low <= high, "Case::int needs a non-empty range");
        let span = (high - low + 1) as u128;
        let drawn = low + (u128::from(self.u64()) % span) as i128;
        T::try_from(drawn).ok().expect("the draw lies in the range")
    }

    /// An `f64` in `range`, start included and end excluded.
    pub fn f64(&mut self, range: Range<f64>) -> f64 {
        let unit = (self.u64() >> 11) as f64 / (1u64 << 53) as f64;
        range.start + unit * (range.end - range.start)
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    /// One of `items`, each equally likely.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.int(0..items.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeds_at(property: &Property, budget: u64) -> Vec<u64> {
        let mut seeds = Vec::new();
        property.run_at(budget, |case| seeds.push(case.seed()));
        seeds
    }

    #[test]
    fn case_seeds_repeat_and_a_larger_budget_appends() {
        let property = property!(
            case_seeds_repeat_and_a_larger_budget_appends,
            master = 7,
            cases = 12
        );
        let default = seeds_at(&property, DEFAULT_BUDGET);
        assert_eq!(default.len(), 12, "the default budget runs the base count");
        assert_eq!(default, seeds_at(&property, DEFAULT_BUDGET));
        assert_eq!(default[3], nth_seed(7, 3));
        let tenfold = seeds_at(&property, 2000);
        assert_eq!(tenfold.len(), 120);
        assert_eq!(tenfold[..12], default[..]);
        assert_eq!(property.cases_at(0), 1, "every property runs a case");
    }

    #[test]
    fn an_unparsable_budget_names_the_variable() {
        assert_eq!(parse_budget(None), Ok(DEFAULT_BUDGET));
        assert_eq!(parse_budget(Some(OsStr::new("2000"))), Ok(2000));
        for bad in ["", "2k", "-1", "1e3"] {
            let message = parse_budget(Some(OsStr::new(bad))).unwrap_err();
            assert!(message.contains("IDCA_FUZZ_SEEDS"), "{message}");
        }
    }

    #[test]
    fn a_failing_case_names_its_index_seed_and_rerun_command() {
        let property = property!(
            a_failing_case_names_its_index_seed_and_rerun_command,
            master = 9,
            cases = 8
        );
        let mut last = None;
        let panic = catch_unwind(AssertUnwindSafe(|| {
            property.run_at(DEFAULT_BUDGET, |case| {
                last = Some((case.index(), case.seed()));
                assert!(case.index() < 5, "boom");
            });
        }))
        .expect_err("the failing case re-raises its panic");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"boom"));
        assert_eq!(
            last,
            Some((5, nth_seed(9, 5))),
            "no case runs after the failing one"
        );
        let case = Case {
            index: 5,
            seed: nth_seed(9, 5),
            draws: 0,
        };
        let message = property.failure(2000, &case);
        assert!(message.contains(&format!("case 5 (seed {:#018x})", nth_seed(9, 5))));
        assert!(message.ends_with(
            "\nIDCA_FUZZ_SEEDS=2000 cargo test -p idca-cases --lib \
             a_failing_case_names_its_index_seed_and_rerun_command"
        ));
    }

    #[test]
    fn draws_stay_in_range_and_reach_every_value() {
        let mut case = Case {
            index: 0,
            seed: 1,
            draws: 0,
        };
        let mut seen = [0u32; 3];
        for _ in 0..60 {
            seen[*case.pick(&[0, 1, 2])] += 1;
            assert!((-3..=3).contains(&case.int(-3i32..=3)));
            assert!((600.0..2400.0).contains(&case.f64(600.0..2400.0)));
        }
        assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
        assert_eq!(case.int(5u8..=5), 5);
    }
}
