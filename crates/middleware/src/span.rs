//! Sampled span scopes: per-layer admission-cost attribution.
//!
//! The trace phase decides once per command or burst whether to
//! sample a span ([`enter`]); on a sampled tick the admission driver
//! brackets each layer's phase with an `Instant` and [`record`]s it,
//! which accumulates microseconds into a thread-local cost table keyed
//! by [`LayerKind`]. When the guard is finished the trace phase
//! harvests the table into the shared per-layer histograms.
//!
//! Thread-locals are sound here by construction: a connection's
//! admission driver ([`crate::fused::FusedService`]) runs entirely on
//! one thread — a call runs start to finish on the thread that made it,
//! and a span is entered and finished inside one call — so an active
//! span can never be observed from another session.
//!
//! An unsampled command makes no span calls at all (a `None` segment
//! is free to [`record`]), which is what keeps the default 1-in-N
//! sampling overhead negligible.

use crate::flight::StoreSegment;
use crate::pipeline::{LayerKind, LAYER_COUNT};
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::time::Instant;

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static COSTS: Cell<[u64; LAYER_COUNT]> = const { Cell::new([0; LAYER_COUNT]) };
    static TOUCHED: Cell<[bool; LAYER_COUNT]> = const { Cell::new([false; LAYER_COUNT]) };
    /// Store-side segments delivered back across the queue boundary:
    /// the shard owner stamps them into the ack envelope, and the
    /// connection thread deposits them here while collecting replies.
    static STORE: RefCell<Vec<StoreSegment>> = const { RefCell::new(Vec::new()) };
}

/// An active span scope. Dropping it (or calling
/// [`SpanGuard::finish`]) deactivates the thread's span.
pub struct SpanGuard {
    /// Chains are single-threaded; keep the guard that way too.
    _not_send: PhantomData<*const ()>,
}

/// Everything a finished span saw: per-layer admission costs from this
/// thread plus the store-side segments the shard owners sent back.
#[derive(Debug)]
pub struct SpanHarvest {
    /// `Some(micros)` for every layer that recorded at least one
    /// segment, `None` for layers the span never saw.
    pub layer_us: [Option<u64>; LAYER_COUNT],
    /// Shard-thread segments in ack-arrival order.
    pub store: Vec<StoreSegment>,
}

/// Begin a sampled span on this thread, resetting the cost table.
pub fn enter() -> SpanGuard {
    ACTIVE.with(|a| a.set(true));
    COSTS.with(|c| c.set([0; LAYER_COUNT]));
    TOUCHED.with(|t| t.set([false; LAYER_COUNT]));
    STORE.with(|s| s.borrow_mut().clear());
    SpanGuard {
        _not_send: PhantomData,
    }
}

impl SpanGuard {
    /// End the span and harvest its segments.
    pub fn finish(self) -> SpanHarvest {
        let costs = COSTS.with(|c| c.get());
        let touched = TOUCHED.with(|t| t.get());
        let mut layer_us = [None; LAYER_COUNT];
        for i in 0..LAYER_COUNT {
            if touched[i] {
                layer_us[i] = Some(costs[i]);
            }
        }
        SpanHarvest {
            layer_us,
            store: STORE.with(|s| std::mem::take(&mut *s.borrow_mut())),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        ACTIVE.with(|a| a.set(false));
    }
}

/// Whether a span is active on this thread — the one-boolean probe the
/// server uses to decide if a mutation envelope should carry timing.
#[inline]
pub fn active() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Deposit a store-side segment received in an ack envelope. A no-op
/// when no span is active (late acks, unsampled requests).
#[inline]
pub fn record_store(seg: StoreSegment) {
    if active() {
        STORE.with(|s| s.borrow_mut().push(seg));
    }
}

/// Close a segment started at `segment`, charging its elapsed
/// microseconds to `kind`. A `None` segment (an unsampled command) is
/// free.
#[inline]
pub fn record(kind: LayerKind, segment: Option<Instant>) {
    let Some(started) = segment else { return };
    let us = started.elapsed().as_micros() as u64;
    let i = kind.index();
    COSTS.with(|c| {
        let mut costs = c.get();
        costs[i] = costs[i].saturating_add(us);
        c.set(costs);
    });
    TOUCHED.with(|t| {
        let mut touched = t.get();
        touched[i] = true;
        t.set(touched);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_span_means_free_segments() {
        assert!(!active());
        record(LayerKind::Auth, None); // must not panic or record
    }

    #[test]
    fn segments_accumulate_per_layer_and_harvest() {
        let guard = enter();
        assert!(active(), "span active");
        record(LayerKind::Auth, Some(Instant::now()));
        record(LayerKind::Auth, Some(Instant::now())); // second segment, same layer
        record(LayerKind::Ttl, Some(Instant::now()));
        let harvest = guard.finish();
        assert!(harvest.layer_us[LayerKind::Auth.index()].is_some());
        assert!(harvest.layer_us[LayerKind::Ttl.index()].is_some());
        assert_eq!(
            harvest.layer_us[LayerKind::Deadline.index()],
            None,
            "never touched"
        );
        assert!(!active(), "span closed after finish");
    }

    #[test]
    fn store_segments_ride_the_harvest_only_while_active() {
        let seg = StoreSegment {
            shard: 1,
            queue_us: 10,
            apply_us: 20,
        };
        record_store(seg); // no span: dropped
        let guard = enter();
        assert!(active());
        record_store(seg);
        let harvest = guard.finish();
        assert_eq!(harvest.store, vec![seg], "only the in-span deposit kept");
        assert!(!active());
        // A fresh span starts with an empty store table.
        let guard = enter();
        assert!(guard.finish().store.is_empty());
    }

    #[test]
    fn dropping_the_guard_deactivates_the_span() {
        {
            let _guard = enter();
            assert!(active());
        }
        assert!(!active());
    }

    #[test]
    fn reentering_resets_stale_costs() {
        let guard = enter();
        record(LayerKind::Trace, Some(Instant::now()));
        drop(guard);
        let guard = enter();
        let harvest = guard.finish();
        assert_eq!(
            harvest.layer_us, [None; LAYER_COUNT],
            "fresh span starts clean"
        );
    }
}
