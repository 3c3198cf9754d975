//! Property tests over one recorded choice stream.
//!
//! A generator is a plain function `fn(&mut Gen) -> T` drawing every
//! decision from a [`simsched::ChoiceStream`], which records them: a
//! value is described by its *choice script*, the decisions taken, and
//! [`replay`]ing the script rebuilds it. So shrinking needs no per-type
//! code (MacIver & Donaldson, ECOOP 2020): [`check`] shrinks a failure by
//! editing its script — deleting collection elements, deleting spans of
//! 8, 4, 2 and 1 choices, lowering values, moving a value onto a later
//! choice — and keeps each edit whose replay still fails with a shorter,
//! or as long and lexicographically smaller, script. Generators put the
//! simplest alternative at choice 0. Cases are seeded from the
//! property's name alone, so every run draws the same cases.

use pomp::{fnv1a, SplitMix64};
use simsched::ChoiceStream;
use std::fmt::Debug;
use std::ops::{Bound, Range, RangeBounds};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Replays a shrink may spend on one failing property.
const SHRINK_RUNS: u32 = 2_000;

/// How far ahead of a choice the shrinker looks for one to move its
/// value onto.
const MOVE_WINDOW: usize = 8;

/// One [`Gen::vec`] draw: the script position of its length choice (if
/// the range had two or more lengths) and the choices of each element.
#[derive(Clone, Debug)]
struct VecDraw {
    len_at: Option<usize>,
    elems: Vec<Range<usize>>,
}

/// The source of every generated value: a [`ChoiceStream`], and where
/// the collections drawn from it lie in its script.
#[derive(Debug)]
pub struct Gen {
    stream: ChoiceStream,
    vecs: Vec<VecDraw>,
}

impl Gen {
    /// A generator drawing from splitmix64 over `seed`.
    pub fn seeded(seed: u64) -> Self {
        Self {
            stream: ChoiceStream::seeded(seed),
            vecs: Vec::new(),
        }
    }

    /// A generator replaying `script` (see [`ChoiceStream::scripted`]).
    fn scripted(script: Vec<usize>) -> Self {
        Self {
            stream: ChoiceStream::scripted(script),
            vecs: Vec::new(),
        }
    }

    /// The decisions taken so far: replaying them rebuilds what was drawn.
    fn script(&self) -> Vec<usize> {
        self.stream.trace().iter().map(|c| c.taken).collect()
    }

    /// A value in `0..n` (`n` must be nonzero).
    pub fn below(&mut self, n: u64) -> u64 {
        self.stream
            .choose(usize::try_from(n).expect("a choice count fits in usize")) as u64
    }

    /// A value in `range`; its lower end is the simplest.
    pub fn u64(&mut self, range: impl RangeBounds<u64>) -> u64 {
        let lo = match range.start_bound() {
            Bound::Included(&lo) => lo,
            Bound::Excluded(&lo) => lo + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&hi) => hi,
            Bound::Excluded(&hi) => hi - 1,
            Bound::Unbounded => u64::MAX,
        };
        match (hi - lo).checked_add(1) {
            Some(span) => lo + self.below(span),
            // The whole domain: two 32-bit halves, each shrinking alone.
            None => (self.below(1 << 32) << 32) | self.below(1 << 32),
        }
    }

    /// A fair coin; `false` is the simplest.
    pub fn bool(&mut self) -> bool {
        self.below(2) == 1
    }

    /// A fraction in `[0, 1)` on a grid of 2^-53.
    pub fn unit_f64(&mut self) -> f64 {
        self.below(1 << 53) as f64 / (1u64 << 53) as f64
    }

    /// `Some` value drawn by `value` half the time; `None` is the simplest.
    pub fn option<T>(&mut self, value: impl FnOnce(&mut Gen) -> T) -> Option<T> {
        self.bool().then(|| value(self))
    }

    /// One of `options`; the first is the simplest.
    pub fn pick<T: Clone>(&mut self, options: &[T]) -> T {
        options[self.below(options.len() as u64) as usize].clone()
    }

    /// A vector of a length uniform in `len`, of elements drawn by
    /// `element`; the shortest is the simplest.
    pub fn vec<T>(&mut self, len: Range<usize>, mut element: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let span = (len.end - len.start) as u64;
        let len_at = (span > 1).then(|| self.stream.trace().len());
        let n = len.start + self.below(span) as usize;
        let mut elems = Vec::with_capacity(n);
        let out = (0..n)
            .map(|_| {
                let start = self.stream.trace().len();
                let value = element(self);
                elems.push(start..self.stream.trace().len());
                value
            })
            .collect();
        self.vecs.push(VecDraw { len_at, elems });
        out
    }
}

/// A line of text — what the regex `.` matches, `len` times: mostly
/// printable ASCII, with a tab, DEL and multi-byte characters mixed in.
pub fn line(g: &mut Gen, len: Range<usize>) -> String {
    let char = |g: &mut Gen| match g.below(20) {
        19 => g.pick(&['\t', '\u{7f}', 'é', 'λ', '中', '🦀']),
        _ => char::from(0x20 + g.below(0x5f) as u8),
    };
    g.vec(len, char).into_iter().collect()
}

/// The value `gen` builds from `script`.
pub fn replay<T>(script: &[usize], gen: impl FnOnce(&mut Gen) -> T) -> T {
    gen(&mut Gen::scripted(script.to_vec()))
}

/// A failing case, shrunk.
#[derive(Debug)]
struct Failure {
    /// The first failing case (0-based).
    case: u32,
    /// The shrunk input's choice script.
    script: Vec<usize>,
    /// The shrunk input, `{:?}`-formatted.
    input: String,
    /// The panic message of the shrunk input.
    message: String,
}

/// Run `prop` on `cases` inputs drawn by `gen`, seeded from `name`; on
/// the first that panics, shrink it and panic with the case, the shrunk
/// input and its script.
pub fn check<T: Debug>(name: &str, cases: u32, gen: impl Fn(&mut Gen) -> T, prop: impl Fn(T)) {
    if let Some(f) = find_failure(name, cases, gen, prop) {
        panic!(
            "property `{name}` failed on case {} of {cases}: {}\n  shrunk input: {}\n  \
             choice script: {:?} (`test_util::prop::replay` rebuilds the input)",
            f.case, f.message, f.input, f.script
        );
    }
}

/// What [`check`] does, returning the shrunk failure instead of
/// panicking with it.
fn find_failure<T: Debug>(
    name: &str,
    cases: u32,
    gen: impl Fn(&mut Gen) -> T,
    prop: impl Fn(T),
) -> Option<Failure> {
    let mut seeds = SplitMix64::new(fnv1a(name.as_bytes()));
    let (case, best) = (0..cases)
        .find_map(|case| Some((case, run(Gen::seeded(seeds.next_u64()), &gen, &prop).err()?)))?;
    let shrunk = Shrinker {
        gen: &gen,
        prop: &prop,
        best,
        runs_left: SHRINK_RUNS,
    }
    .shrink();
    let input = format!("{:?}", replay(&shrunk.script, &gen));
    Some(Failure {
        case,
        script: shrunk.script,
        input,
        message: shrunk.message,
    })
}

/// A failing run: its script, its collections and its panic message.
struct Failed {
    script: Vec<usize>,
    vecs: Vec<VecDraw>,
    message: String,
}

fn run<T>(mut g: Gen, gen: &impl Fn(&mut Gen) -> T, prop: &impl Fn(T)) -> Result<(), Failed> {
    let outcome = catch_unwind(AssertUnwindSafe(|| prop(gen(&mut g))));
    outcome.map_err(|payload| Failed {
        script: g.script(),
        vecs: g.vecs,
        message: (payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default(),
    })
}

struct Shrinker<'a, G, P> {
    gen: &'a G,
    prop: &'a P,
    best: Failed,
    runs_left: u32,
}

impl<T, G: Fn(&mut Gen) -> T, P: Fn(T)> Shrinker<'_, G, P> {
    /// Keep `candidate` if it still fails, with a shorter script or one
    /// as long and lexicographically smaller.
    fn try_script(&mut self, candidate: Vec<usize>) -> bool {
        if self.runs_left == 0 {
            return false;
        }
        self.runs_left -= 1;
        let best = &self.best.script;
        match run(Gen::scripted(candidate), self.gen, self.prop) {
            Err(failed) if (failed.script.len(), &failed.script) < (best.len(), best) => {
                self.best = failed;
                true
            }
            _ => false,
        }
    }

    fn shrink(mut self) -> Failed {
        loop {
            let before = self.best.script.clone();
            self.delete_elements();
            for k in [8, 4, 2, 1] {
                self.delete_spans(k);
            }
            self.lower_values();
            self.move_values();
            if self.best.script == before || self.runs_left == 0 {
                return self.best;
            }
        }
    }

    /// Delete an element of a collection and lower its length choice.
    fn delete_elements(&mut self) {
        let mut v = 0;
        while let Some(draw) = self.best.vecs.get(v).cloned() {
            let at = draw.len_at.filter(|&at| self.best.script[at] > 0);
            let deleted = at.is_some_and(|at| {
                draw.elems.iter().rev().any(|elem| {
                    let mut candidate = self.best.script.clone();
                    candidate[at] -= 1;
                    candidate.drain(elem.clone());
                    self.try_script(candidate)
                })
            });
            // After a deletion the draws have moved: look at `v` again.
            v += usize::from(!deleted);
        }
    }

    fn delete_spans(&mut self, k: usize) {
        let mut i = 0;
        while i + k <= self.best.script.len() {
            let mut candidate = self.best.script.clone();
            candidate.drain(i..i + k);
            i += usize::from(!self.try_script(candidate));
        }
    }

    /// Lower each choice to the least value that still fails: 0, or
    /// found by bisection below its value.
    fn lower_values(&mut self) {
        let mut i = 0;
        while let Some(&value) = self.best.script.get(i) {
            let (mut lo, mut hi) = (0, value);
            while lo < hi && self.runs_left > 0 {
                let mid = if lo == 0 { 0 } else { lo + (hi - lo) / 2 };
                let mut candidate = self.best.script.clone();
                candidate[i] = mid;
                // A kept candidate replays the same choices before `i`, so
                // its script still has `mid` at `i`.
                if self.try_script(candidate) {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            i += 1;
        }
    }

    /// Zero a choice and add its value to one shortly after: what merges
    /// two elements whose sum matters into one a deletion can keep.
    fn move_values(&mut self) {
        for i in 0..self.best.script.len() {
            for j in i + 1..i + 1 + MOVE_WINDOW {
                let script = &self.best.script;
                let (Some(&value), true) = (script.get(i), j < script.len()) else {
                    break;
                };
                if value == 0 {
                    break;
                }
                let mut candidate = script.clone();
                candidate[i] = 0;
                candidate[j] = candidate[j].saturating_add(value);
                self.try_script(candidate);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::{body, Body};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Mutex;

    fn drawn(name: &str) -> Vec<String> {
        let seen = Mutex::new(Vec::new());
        let gen = |g: &mut Gen| g.vec(0..8, |g| g.u64(..));
        check(name, 32, gen, |v| {
            seen.lock().unwrap().push(format!("{v:?}"))
        });
        seen.into_inner().unwrap()
    }

    #[test]
    fn the_same_name_draws_the_same_cases() {
        let cases = drawn("same-name");
        assert_eq!(cases.len(), 32);
        assert_eq!(cases, drawn("same-name"));
        assert_ne!(cases, drawn("another-name"));
    }

    fn plan(g: &mut Gen) -> Vec<Body> {
        g.vec(1..6, |g| body(g, 4))
    }

    /// Nodes, `Child` nodes, `Child` nodes below a `Child` and the depth
    /// of `bodies` (`inside`: they are below a `Child` themselves).
    fn census(bodies: &[Body], inside: bool) -> [usize; 4] {
        bodies.iter().fold([0; 4], |[n, c, nested, depth], b| {
            let (child, inner) = match b {
                Body::Work(_) => (false, &[][..]),
                Body::Child(_, inner) => (true, &inner[..]),
                Body::Region(_, inner) | Body::Param(_, inner) => (false, &inner[..]),
            };
            let [n2, c2, nested2, depth2] = census(inner, inside || child);
            let nested_here = usize::from(child && inside);
            let c = c + usize::from(child) + c2;
            [
                n + 1 + n2,
                c,
                nested + nested_here + nested2,
                depth.max(1 + depth2),
            ]
        })
    }

    #[test]
    fn a_nested_child_shrinks_to_the_two_children() {
        let failure = find_failure("no child in a child", 256, plan, |p| {
            assert_eq!(census(&p, false)[2], 0, "a child in a child")
        })
        .expect("some plan nests a child in a child");
        let [nodes, children, ..] = census(&replay(&failure.script, plan), false);
        assert!(nodes <= 3 && children == 2, "{failure:?}");
        assert!(
            failure.message.contains("a child in a child"),
            "{failure:?}"
        );
    }

    fn numbers(g: &mut Gen) -> Vec<u64> {
        g.vec(0..20, |g| g.u64(..5_000))
    }

    #[test]
    fn a_large_sum_shrinks_to_one_element() {
        let sum_below = |v: Vec<u64>| assert!(v.iter().sum::<u64>() < 1000);
        let failure =
            find_failure("sum below 1000", 256, numbers, sum_below).expect("a sum past it");
        assert_eq!(replay(&failure.script, numbers), [1000], "{failure:?}");
    }

    #[test]
    fn a_reported_script_replays_to_the_reported_input() {
        let short = |v: Vec<u64>| assert!(v.len() < 15);
        let failure = find_failure("short vectors", 256, numbers, short).expect("a long one");
        assert_eq!(
            format!("{:?}", replay(&failure.script, numbers)),
            failure.input
        );
        assert_eq!(replay(&failure.script, numbers).len(), 15, "{failure:?}");
        // A seeded draw replays from its own script too.
        let mut g = Gen::seeded(7);
        let drawn = plan(&mut g);
        assert_eq!(
            format!("{:?}", replay(&g.script(), plan)),
            format!("{drawn:?}")
        );
    }

    #[test]
    fn u64_stays_in_its_range() {
        let gen = |g: &mut Gen| (g.u64(3..9), g.u64(7..=7), g.u64(u64::MAX - 1..));
        check("u64 ranges", 256, gen, |(a, b, c)| {
            assert!((3..9).contains(&a) && b == 7 && c >= u64::MAX - 1)
        });
        let mut g = Gen::seeded(1);
        let whole: Vec<u64> = (0..256).map(|_| g.u64(..)).collect();
        assert!(whole.iter().any(|&v| v < 1 << 60) && whole.iter().any(|&v| v > u64::MAX >> 4));
    }

    #[test]
    fn vec_lengths_stay_in_their_range() {
        let gen = |g: &mut Gen| (g.vec(2..5, Gen::bool), g.vec(4..5, Gen::bool));
        let lengths = |(a, b): (Vec<_>, Vec<_>)| assert!((2..5).contains(&a.len()) && b.len() == 4);
        check("vec lengths", 256, gen, lengths);
    }

    #[test]
    fn a_line_is_one_line_of_at_most_its_length() {
        let one_line = |s: String| assert!(s.chars().count() <= 40 && !s.contains('\n'));
        check("lines", 256, |g| line(g, 0..41), one_line);
    }

    #[test]
    fn pick_bool_and_unit_cover_their_domain() {
        let mut g = Gen::seeded(3);
        let picks: Vec<u8> = (0..64).map(|_| g.pick(&[1, 2, 3])).collect();
        assert!([1, 2, 3].iter().all(|k| picks.contains(k)), "{picks:?}");
        let coins: Vec<bool> = (0..64).map(|_| g.bool()).collect();
        assert!(coins.contains(&true) && coins.contains(&false));
        assert!((0..64).all(|_| (0.0..1.0).contains(&g.unit_f64())));
    }

    #[test]
    fn recursion_stops_at_its_depth() {
        check("plan depth", 256, plan, |p| {
            assert!(census(&p, false)[3] <= 5, "{p:?}")
        });
    }

    #[test]
    fn a_script_of_zeros_draws_the_simplest_values() {
        let zeros = [0; 64];
        assert_eq!(format!("{:?}", replay(&zeros, plan)), "[Work(0)]");
        assert_eq!(replay(&zeros, numbers), Vec::<u64>::new());
        assert_eq!(replay(&zeros, |g| line(g, 2..9)), "  ");
        let simplest = replay(&zeros, |g| {
            (g.bool(), g.u64(5..), g.unit_f64(), g.option(Gen::bool))
        });
        assert_eq!(simplest, (false, 5, 0.0, None));
    }

    #[test]
    fn shrinking_stops_at_its_run_budget() {
        // Every edit of a long vector fails again: only the budget stops.
        let runs = AtomicU32::new(0);
        let gen = |g: &mut Gen| g.vec(200..400, |g| g.u64(..));
        let failure = find_failure("budget", 8, gen, |_| {
            runs.fetch_add(1, Ordering::Relaxed);
            panic!("always");
        });
        assert_eq!(failure.map(|f| f.case), Some(0));
        assert_eq!(runs.into_inner(), 1 + SHRINK_RUNS);
    }

    #[test]
    fn check_panics_with_the_report() {
        let panic = catch_unwind(|| check("always fails", 4, |g| g.u64(..9), |_| panic!("no")))
            .expect_err("a failing property panics");
        let report = panic.downcast_ref::<String>().expect("a formatted report");
        assert!(
            report.starts_with("property `always fails` failed on case 0 of 4: no"),
            "{report}"
        );
        assert!(
            report.contains("shrunk input: 0\n  choice script: [0]"),
            "{report}"
        );
    }
}
