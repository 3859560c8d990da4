//! Deterministic fault injection — an offline stand-in for the `fail`
//! crate's failpoints, built for the crash-only serving tier.
//!
//! A *failpoint* is a named site in the code (`fail_point!("patch.commit")`)
//! that compiles to a one-atomic-load no-op branch unless fault injection is
//! active.  Activation is either the `FHG_FAILPOINTS` environment variable
//! (read once, at the first site evaluation) or an explicit
//! [`configure`] call (chaos tests); the spec format is
//!
//! ```text
//! FHG_FAILPOINTS=patch.after_rows=panic,verify.edge=err@0.1
//! ```
//!
//! — a comma-separated list of `site=action[@probability]` rules, where
//! `action` is `panic` (unwind at the site), `err` (take the site's
//! error arm, e.g. a typed `Err` return or a flipped verdict) or `off`
//! (explicitly disable the site while leaving injection active).  A
//! probability in `(0, 1]` arms the site on that fraction of evaluations,
//! drawn from a **per-site deterministic LCG**: the stream of armed/unarmed
//! decisions at a site is a pure function of the site name, the
//! `FHG_FAILPOINT_SEED` value (default 0) and the number of prior
//! evaluations of that site — never of wall-clock, thread identity or
//! pointer addresses — so a chaos schedule replays bit-for-bit.
//!
//! Same warn-and-fall-back contract as every other `FHG_*` knob: a
//! malformed rule warns on stderr and is skipped; fault injection can make
//! the server *fail on purpose*, but a typo in the environment must never
//! change what the healthy paths compute (pinned by the unit tests below).
//!
//! # Disabled cost
//!
//! When no spec is active every site costs one inlined relaxed [`AtomicU8`]
//! load and a predicted branch — no call, no lock, no hashing.  The first
//! evaluation, which reads the environment, and every evaluation while
//! injection is on take a cold out-of-line path.  Experiment `e18` records
//! the disabled overhead on the e16 serving qps path; the acceptance bound
//! is ≤ 2 %.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering::Relaxed};
use std::sync::{Once, OnceLock, RwLock};

/// What an armed failpoint tells its site to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Unwind at the site (`panic!`), simulating a crash mid-operation.
    Panic,
    /// Take the site's error arm: the expression the `fail_point!` caller
    /// supplied (typically a typed `Err` return or a flipped verdict).
    Err,
}

/// One configured site: the action, an arming threshold in millionths
/// (1_000_000 = always), and the site's private LCG state.
struct Site {
    action: FailAction,
    prob_millionths: u64,
    lcg: AtomicU64,
}

impl Site {
    /// Draws the site's next deterministic decision; `true` arms the site.
    fn armed(&self) -> bool {
        if self.prob_millionths >= 1_000_000 {
            return true;
        }
        let next = self
            .lcg
            .fetch_update(Relaxed, Relaxed, |s| {
                Some(s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407))
            })
            .expect("fetch_update closure always returns Some")
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (next >> 16) % 1_000_000 < self.prob_millionths
    }
}

/// The injection state every site loads first: [`UNREAD`] until the
/// environment has been read (or an explicit [`configure`] / [`clear`]),
/// then [`OFF`] or [`ON`].  It publishes nothing else — the sites live in
/// the registry, which is read under its `RwLock` — so `Relaxed` suffices.
static STATE: AtomicU8 = AtomicU8::new(UNREAD);
const UNREAD: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

/// Serialises the one environment read against explicit configuration, so
/// an explicit [`configure`] always wins over `FHG_FAILPOINTS`.
static ENV_READ: Once = Once::new();

fn registry() -> &'static RwLock<HashMap<String, Site>> {
    static REGISTRY: OnceLock<RwLock<HashMap<String, Site>>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(HashMap::new()))
}

/// FNV-1a over the site name, mixed into the per-site LCG seed so distinct
/// sites draw decorrelated (but individually deterministic) streams.
fn site_seed(name: &str, seed: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // One LCG step over the xor keeps seed 0 from zeroing short names.
    (h ^ seed).wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407)
}

/// Parses one `site=action[@prob]` rule; `None` (with a warning) on
/// malformed input.  Factored out of [`install`] so the fallback policy is
/// testable.
fn parse_rule(rule: &str) -> Option<(String, Option<(FailAction, u64)>)> {
    let rule = rule.trim();
    let (site, spec) = rule.split_once('=')?;
    let (site, spec) = (site.trim(), spec.trim());
    if site.is_empty() {
        return None;
    }
    let (action, prob, had_prob) = match spec.split_once('@') {
        Some((a, p)) => {
            let p: f64 = p.trim().parse().ok()?;
            if !(0.0..=1.0).contains(&p) {
                return None;
            }
            (a.trim(), (p * 1e6).round() as u64, true)
        }
        None => (spec, 1_000_000, false),
    };
    let action = match action {
        "panic" => Some((FailAction::Panic, prob)),
        "err" => Some((FailAction::Err, prob)),
        "off" if !had_prob => None,
        _ => return None,
    };
    Some((site.to_string(), action))
}

/// Installs a failpoint spec (see the module docs for the format), replacing
/// any previous configuration, with an explicit LCG seed for the per-site
/// probability streams.  Malformed rules warn on stderr and are skipped —
/// the warn-and-fall-back `FHG_*` contract.
pub fn configure_with_seed(spec: &str, seed: u64) {
    ENV_READ.call_once(|| {}); // claim the env read; an explicit config wins
    install(spec, seed);
}

/// Parses `spec` and replaces the registry with it; the state turns [`ON`]
/// when any site is armed, [`OFF`] otherwise.
fn install(spec: &str, seed: u64) {
    let mut map = HashMap::new();
    for rule in spec.split(',') {
        if rule.trim().is_empty() {
            continue;
        }
        match parse_rule(rule) {
            Some((site, Some((action, prob)))) => {
                let lcg = AtomicU64::new(site_seed(&site, seed));
                map.insert(site, Site { action, prob_millionths: prob, lcg });
            }
            Some((_, None)) => {} // explicit `off`
            None => {
                eprintln!(
                    "warning: FHG_FAILPOINTS rule {rule:?} is not site=panic|err|off[@prob]; \
                     skipping it"
                );
            }
        }
    }
    let state = if map.is_empty() { OFF } else { ON };
    let mut registry = registry().write().expect("failpoint registry poisoned");
    *registry = map;
    STATE.store(state, Relaxed);
}

/// [`configure_with_seed`] with the `FHG_FAILPOINT_SEED` environment
/// variable (default 0) as the seed.
pub fn configure(spec: &str) {
    configure_with_seed(spec, env_seed());
}

/// Removes every configured site and disables injection; sites return to
/// their compiled no-op branch.
pub fn clear() {
    configure_with_seed("", 0);
}

/// Re-reads `FHG_FAILPOINTS` / `FHG_FAILPOINT_SEED` and installs whatever
/// they currently say (the state a fresh process would start in).  Chaos
/// tests use this to hand control back to an externally-pinned schedule
/// after programmatic [`configure`] calls.
pub fn reset_to_env() {
    ENV_READ.call_once(|| {});
    install_from_env();
}

/// Installs `FHG_FAILPOINTS` with the `FHG_FAILPOINT_SEED` seed, or nothing
/// when it is unset.
fn install_from_env() {
    match std::env::var("FHG_FAILPOINTS") {
        Ok(spec) => install(&spec, env_seed()),
        Err(_) => install("", 0),
    }
}

/// The `FHG_FAILPOINT_SEED` knob (default 0; malformed values warn and
/// fall back, like every other `FHG_*` knob).
fn env_seed() -> u64 {
    crate::env_knob("FHG_FAILPOINT_SEED", 0)
}

/// Whether any failpoint spec is currently active (observability; `e18`
/// reports it next to its overhead rows).
pub fn active() -> bool {
    ENV_READ.call_once(install_from_env);
    STATE.load(Relaxed) == ON
}

/// Evaluates the failpoint `site`: `None` on the (overwhelmingly common)
/// disabled or unarmed path, `Some(action)` when the site fires.  Callers
/// normally go through the [`fail_point!`](crate::fail_point) macro rather
/// than calling this directly.
#[inline]
pub fn check(site: &str) -> Option<FailAction> {
    if STATE.load(Relaxed) == OFF {
        return None;
    }
    check_slow(site)
}

/// [`check`] with the environment unread or injection on: read the
/// environment once, then look the site up.
#[cold]
#[inline(never)]
fn check_slow(site: &str) -> Option<FailAction> {
    if !active() {
        return None;
    }
    let registry = registry().read().expect("failpoint registry poisoned");
    let entry = registry.get(site)?;
    entry.armed().then_some(entry.action)
}

/// Declares a named failpoint site.
///
/// * `fail_point!("site")` — panics when the site fires with the `panic`
///   action; an `err` action at a bare site also panics (the site offers no
///   error arm, so the misconfiguration must be loud, not silent).
/// * `fail_point!("site", expr)` — panics on `panic`; evaluates `expr` on
///   `err`.  `expr` is typically a `return Err(...)` in the enclosing
///   function, which is what makes the site a *typed* fault.
///
/// Disabled cost is one relaxed atomic load; see the
/// [module docs](crate::failpoint).
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {
        if let Some(action) = $crate::failpoint::check($name) {
            match action {
                $crate::failpoint::FailAction::Panic | $crate::failpoint::FailAction::Err => {
                    panic!("failpoint {} fired", $name)
                }
            }
        }
    };
    ($name:expr, $err:expr) => {
        if let Some(action) = $crate::failpoint::check($name) {
            match action {
                $crate::failpoint::FailAction::Panic => panic!("failpoint {} fired", $name),
                $crate::failpoint::FailAction::Err => $err,
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Failpoint state is process-global; every test that configures it
    /// serialises on this lock (ignoring poisoning — a failed test must not
    /// cascade) and clears on the way out.
    pub(crate) fn with_exclusive_failpoints<R>(f: impl FnOnce() -> R) -> R {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let out = f();
        clear();
        out
    }

    #[test]
    fn disabled_sites_are_no_ops() {
        with_exclusive_failpoints(|| {
            clear();
            assert!(!active());
            assert_eq!(check("nowhere"), None);
        });
    }

    #[test]
    fn configure_arms_and_clear_disarms() {
        with_exclusive_failpoints(|| {
            configure("a.site=panic, b.site=err");
            assert!(active());
            assert_eq!(check("a.site"), Some(FailAction::Panic));
            assert_eq!(check("b.site"), Some(FailAction::Err));
            assert_eq!(check("c.site"), None, "unconfigured sites stay silent");
            clear();
            assert_eq!(check("a.site"), None);
        });
    }

    #[test]
    fn probability_streams_are_deterministic_per_seed() {
        with_exclusive_failpoints(|| {
            let draw = |seed: u64| -> Vec<bool> {
                configure_with_seed("p.site=err@0.3", seed);
                (0..64).map(|_| check("p.site").is_some()).collect()
            };
            let a = draw(7);
            let b = draw(7);
            assert_eq!(a, b, "same seed must replay the same decision stream");
            let fired = a.iter().filter(|&&x| x).count();
            assert!(fired > 0 && fired < 64, "p=0.3 must fire sometimes, not always ({fired})");
            let c = draw(8);
            assert_ne!(a, c, "a different seed must eventually diverge");
        });
    }

    #[test]
    fn probability_bounds_are_exact_at_zero_and_one() {
        with_exclusive_failpoints(|| {
            configure("never=err@0.0,always=panic@1.0");
            assert!((0..32).all(|_| check("never").is_none()));
            assert!((0..32).all(|_| check("always") == Some(FailAction::Panic)));
        });
    }

    #[test]
    fn malformed_rules_warn_and_are_skipped() {
        with_exclusive_failpoints(|| {
            // Every rule here is broken except the last; the healthy rule
            // must survive its malformed neighbours.
            configure("nonsense,=panic,x=explode,y=err@1.5,z=err@-1,ok.site=err");
            assert_eq!(check("ok.site"), Some(FailAction::Err));
            assert_eq!(check("x"), None);
            assert_eq!(check("y"), None);
            assert_eq!(check("z"), None);
        });
    }

    #[test]
    fn seed_knob_falls_back_instead_of_panicking() {
        // Same contract as every other `FHG_*` knob; a blank seed is unset.
        let parse_seed = |raw| crate::parse_knob("FHG_FAILPOINT_SEED", raw, 0u64);
        assert_eq!(parse_seed(None), 0);
        assert_eq!(parse_seed(Some("")), 0);
        assert_eq!(parse_seed(Some("  ")), 0);
        assert_eq!(parse_seed(Some("garbage")), 0);
        assert_eq!(parse_seed(Some("-1")), 0);
        assert_eq!(parse_seed(Some("20260809")), 20_260_809);
        assert_eq!(parse_seed(Some(" 7 ")), 7, "whitespace is trimmed");
        assert_eq!(parse_seed(Some("18446744073709551615")), u64::MAX);
        assert_eq!(parse_seed(Some("18446744073709551616")), 0, "overflow falls back");
    }

    #[test]
    fn off_rules_disable_a_site_without_disabling_injection() {
        with_exclusive_failpoints(|| {
            configure("muted=off,live=panic");
            assert!(active());
            assert_eq!(check("muted"), None);
            assert_eq!(check("live"), Some(FailAction::Panic));
        });
    }

    #[test]
    fn parse_rule_grammar() {
        assert_eq!(parse_rule("a=panic"), Some(("a".into(), Some((FailAction::Panic, 1_000_000)))));
        assert_eq!(
            parse_rule(" a = err @ 0.5 "),
            Some(("a".into(), Some((FailAction::Err, 500_000))))
        );
        assert_eq!(parse_rule("a=off"), Some(("a".into(), None)));
        assert_eq!(parse_rule("a=off@0.5"), None, "off takes no probability");
        assert_eq!(parse_rule("no-equals"), None);
        assert_eq!(parse_rule("=panic"), None);
        assert_eq!(parse_rule("a=panik"), None);
        assert_eq!(parse_rule("a=err@two"), None);
        assert_eq!(parse_rule("a=err@1.01"), None);
    }

    #[test]
    fn bare_macro_panics_on_either_action() {
        with_exclusive_failpoints(|| {
            configure("bare=err");
            let out = std::panic::catch_unwind(|| fail_point!("bare"));
            assert!(out.is_err(), "a bare site must be loud about an err action");
        });
    }

    #[test]
    fn err_arm_takes_the_supplied_expression() {
        with_exclusive_failpoints(|| {
            configure("typed=err");
            fn guarded() -> Result<u32, &'static str> {
                fail_point!("typed", return Err("injected"));
                Ok(7)
            }
            assert_eq!(guarded(), Err("injected"));
            clear();
            assert_eq!(guarded(), Ok(7));
        });
    }
}
