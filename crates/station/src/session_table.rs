//! The session table: the one lock of the serving crates.
//!
//! The accept loop registers each live session's read half here, every
//! exiting session removes its own, and station shutdown drains the rest.
//! The table is generic over its entry and puts no bound on it, so code
//! holding the lock can move an entry in or out but cannot call a method
//! on one: the blocking calls happen in the caller, after the guard is
//! gone. The root `tests/clippy_gate.rs` fails if this file names a
//! socket, channel, sleep or clock API.

/// Entries keyed by session id, in registration order.
#[derive(Debug)]
pub(crate) struct SessionTable<T> {
    // A registry the accept loop, every exiting session and shutdown all
    // edit. Each holder touches only the `Vec`; the entries are opaque.
    #[allow(clippy::disallowed_types)]
    inner: std::sync::Mutex<Vec<(u64, T)>>,
}

impl<T> Default for SessionTable<T> {
    fn default() -> Self {
        Self {
            inner: Default::default(),
        }
    }
}

impl<T> SessionTable<T> {
    /// Registers `entry` under session `id`.
    pub(crate) fn insert(&self, id: u64, entry: T) {
        let mut table = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        table.push((id, entry));
    }

    /// Takes session `id`'s entry out of the table. The caller drops it
    /// after the lock is released.
    pub(crate) fn remove(&self, id: u64) -> Option<T> {
        let mut table = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let at = table.iter().position(|(sid, _)| *sid == id)?;
        Some(table.remove(at).1)
    }

    /// Takes every entry, leaving the table empty.
    pub(crate) fn take_all(&self) -> Vec<T> {
        let mut table = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut *table)
            .into_iter()
            .map(|(_, entry)| entry)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remove_takes_only_the_named_session() {
        let table = SessionTable::default();
        table.insert(1, "a");
        table.insert(2, "b");
        table.insert(3, "c");
        assert_eq!(table.remove(2), Some("b"));
        assert_eq!(table.remove(2), None);
        assert_eq!(table.take_all(), ["a", "c"]);
        assert!(table.take_all().is_empty());
    }
}
