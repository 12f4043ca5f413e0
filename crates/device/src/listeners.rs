//! Listener lists whose callbacks run outside their owner's lock.
//!
//! The SMSC's inbox listeners and the call switch's state listeners
//! follow one discipline. A registration returns a guard whose drop
//! removes the listener ([`unsubscribe`]). A dispatch takes the list out
//! of the lock while it calls the listeners, so a callback may add or
//! drop subscriptions, and [`put_back`] then restores the list.

/// A subscribed listener and the id of the guard that owns it.
pub(crate) struct Listener<F> {
    pub(crate) id: u64,
    pub(crate) call: F,
}

/// Removes listener `id` from `listeners` and returns it, to be dropped
/// after the lock is released: what it captured may hold subscriptions
/// of its own. While a dispatch has the list out of the lock, records
/// `id` in `unsubscribed` instead, so that [`put_back`] drops it.
pub(crate) fn unsubscribe<F>(
    listeners: &mut Vec<Listener<F>>,
    unsubscribed: &mut Vec<u64>,
    id: u64,
) -> Option<Listener<F>> {
    match listeners.iter().position(|l| l.id == id) {
        Some(index) => Some(listeners.remove(index)),
        None => {
            unsubscribed.push(id);
            None
        }
    }
}

/// Puts the listeners a dispatch `taken` out of `slot` back, ahead of
/// those added during the callbacks, except the ones unsubscribed
/// during them: those are returned, to be dropped after the lock is
/// released.
pub(crate) fn put_back<F>(
    slot: &mut Vec<Listener<F>>,
    mut taken: Vec<Listener<F>>,
    unsubscribed: &mut Vec<u64>,
) -> Vec<Listener<F>> {
    let gone: Vec<Listener<F>> = taken
        .extract_if(.., |l| unsubscribed.contains(&l.id))
        .collect();
    unsubscribed.retain(|id| gone.iter().all(|l| l.id != *id));
    let added = std::mem::replace(slot, taken);
    slot.extend(added);
    gone
}
