//! Hierarchical timed spans.
//!
//! A [`SpanGuard`] measures the wall time between its creation and drop
//! and emits a `span` event with its slash-joined ancestry path. Nesting
//! is tracked per thread with a thread-local name stack. A thread that
//! hands work to other threads captures its stack as a [`SpanContext`],
//! and each worker runs under it with [`SpanContext::scope`], so spans
//! opened on the workers nest under the span that spawned them (the
//! rayon shim does this for every worker). Guards are scope-bound:
//! create them with the [`span!`](crate::span) macro, bind to a local
//! (`let _span = span!(...)`), and let them drop in LIFO order.

use std::cell::RefCell;
use std::time::Instant;

use crate::sink::Event;

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

struct ActiveSpan {
    path: String,
    depth: usize,
    start: Instant,
    attrs: Vec<(&'static str, String)>,
}

/// RAII guard for one timed span; see the module docs.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    /// Open a span named `name` under the calling thread's current span.
    ///
    /// Prefer the [`span!`](crate::span) macro, which skips attribute
    /// construction entirely when telemetry is not installed.
    pub fn enter(name: &'static str, attrs: Vec<(&'static str, String)>) -> Self {
        let (path, depth) = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            stack.push(name);
            (stack.join("/"), stack.len())
        });
        SpanGuard {
            active: Some(ActiveSpan {
                path,
                depth,
                start: Instant::now(),
                attrs,
            }),
        }
    }

    /// A no-op guard used when telemetry is disabled.
    pub fn disabled() -> Self {
        SpanGuard { active: None }
    }

    /// Wall time elapsed so far (zero for disabled guards).
    pub fn elapsed(&self) -> std::time::Duration {
        self.active
            .as_ref()
            .map(|a| a.start.elapsed())
            .unwrap_or_default()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let wall_ns = crate::hist::saturating_ns(active.start.elapsed());
        SPAN_STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        crate::emit(&Event::SpanClose {
            path: &active.path,
            depth: active.depth,
            wall_ns,
            attrs: &active.attrs,
        });
    }
}

/// The span ancestry open on one thread, outermost first, captured so
/// work handed to other threads nests under it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanContext {
    stack: Vec<&'static str>,
}

impl SpanContext {
    /// The calling thread's open spans.
    pub fn current() -> Self {
        SpanContext {
            stack: SPAN_STACK.with(|stack| stack.borrow().clone()),
        }
    }

    /// Run `f` with this context as the calling thread's span ancestry,
    /// so spans `f` opens nest under it. The thread's own ancestry comes
    /// back afterwards, also when `f` unwinds.
    pub fn scope<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Vec<&'static str>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let own = std::mem::take(&mut self.0);
                SPAN_STACK.with(|stack| *stack.borrow_mut() = own);
            }
        }
        let _restore = Restore(SPAN_STACK.with(|stack| stack.replace(self.stack.clone())));
        f()
    }
}

/// Open a timed span: `span!("sweep")` or `span!("simulate", config_id)`.
///
/// Returns a [`SpanGuard`]; bind it to keep the span open. Attributes can
/// be bare identifiers (key is the identifier name) or `key = expr`
/// pairs; values are captured with `Display`. When telemetry is not
/// installed the attribute expressions are not evaluated.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        if $crate::enabled() {
            $crate::SpanGuard::enter($name, ::std::vec::Vec::new())
        } else {
            $crate::SpanGuard::disabled()
        }
    };
    ($name:expr, $($key:ident = $val:expr),+ $(,)?) => {
        if $crate::enabled() {
            $crate::SpanGuard::enter(
                $name,
                ::std::vec![$((stringify!($key), ($val).to_string())),+],
            )
        } else {
            $crate::SpanGuard::disabled()
        }
    };
    ($name:expr, $($key:ident),+ $(,)?) => {
        $crate::span!($name, $($key = $key),+)
    };
}

/// Record an instantaneous observation: `point!("prune/accept", hidden = h)`.
///
/// Attribute syntax matches [`span!`](crate::span). Does nothing (and
/// evaluates nothing) when telemetry is not installed.
#[macro_export]
macro_rules! point {
    ($name:expr) => {
        if $crate::enabled() {
            $crate::emit_point($name, &[]);
        }
    };
    ($name:expr, $($key:ident = $val:expr),+ $(,)?) => {
        if $crate::enabled() {
            $crate::emit_point(
                $name,
                &[$((stringify!($key), ($val).to_string())),+],
            );
        }
    };
    ($name:expr, $($key:ident),+ $(,)?) => {
        $crate::point!($name, $($key = $key),+)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_nests_worker_spans_and_restores_the_worker_ancestry() {
        let _outer = SpanGuard::enter("outer", Vec::new());
        let ctx = SpanContext::current();
        assert_eq!(ctx.stack, ["outer"]);
        std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(SpanContext::current(), SpanContext::default());
                ctx.scope(|| {
                    let _inner = SpanGuard::enter("inner", Vec::new());
                    assert_eq!(SpanContext::current().stack, ["outer", "inner"]);
                });
                assert_eq!(SpanContext::current(), SpanContext::default());
            });
        });
        assert_eq!(SpanContext::current(), ctx);
    }
}
