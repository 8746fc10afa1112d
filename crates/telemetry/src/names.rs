//! The process-wide metric-name pool: every name a registry, a scope or
//! a decoded record uses is leaked once into a `&'static str` and given a
//! dense [`NameId`], so a name seen before costs a hash lookup and no
//! allocation.
//!
//! Ids are handed out in first-sight order, which depends on which thread
//! interned a name first, so no id may reach output: every rendering and
//! encoding resolves ids back to names ([`NameId::name`]) and orders by
//! name.
//!
//! Each thread keeps a lookup cache in front of the one pool (both
//! directions: name → id and id → name), so a hit takes no lock. The
//! cache holds the pool's own leaked strings; it interns nothing itself.
//! The names form a closed set per run (metric names, event kinds and
//! field keys, exposure cells and hosts), so the leak is bounded.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::hash::{FxHashMap, FxHasher};

/// A metric name's dense id in the process-wide pool. Ids order by first
/// sight, not by name; never render or sort output by them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NameId(u32);

impl NameId {
    /// The id of `name`, interning it on first sight.
    pub fn of(name: &str) -> NameId {
        match CACHE.try_with(|cache| cache.borrow_mut().id(name)) {
            Ok(id) => id,
            Err(_) => pool_intern(name).0,
        }
    }

    /// The interned name.
    pub fn name(self) -> &'static str {
        match CACHE.try_with(|cache| cache.borrow_mut().name(self)) {
            Ok(name) => name,
            Err(_) => pool_name(self),
        }
    }

    /// The id as a dense index (for id-indexed tables).
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// Intern `name` and return the pool's `&'static str` for it: the same
/// pointer for every call with equal text.
pub fn intern_static(name: &str) -> &'static str {
    NameId::of(name).name()
}

/// The pool: leaked names by id, and ids by name.
#[derive(Default)]
struct Pool {
    ids: HashMap<&'static str, NameId, BuildHasherDefault<FxHasher>>,
    names: Vec<&'static str>,
}

fn pool() -> std::sync::MutexGuard<'static, Pool> {
    static POOL: OnceLock<Mutex<Pool>> = OnceLock::new();
    POOL.get_or_init(Mutex::default)
        .lock()
        // The pool is consistent after every statement, so a panic
        // elsewhere while it was held leaves nothing half-written.
        .unwrap_or_else(PoisonError::into_inner)
}

/// Look `name` up in the pool, leaking it on first sight.
fn pool_intern(name: &str) -> (NameId, &'static str) {
    let mut pool = pool();
    if let Some((&leaked, &id)) = pool.ids.get_key_value(name) {
        return (id, leaked);
    }
    let id = NameId(u32::try_from(pool.names.len()).unwrap_or(u32::MAX));
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    pool.names.push(leaked);
    pool.ids.insert(leaked, id);
    (id, leaked)
}

/// Every interned name, indexed by id.
pub(crate) fn all() -> Vec<&'static str> {
    pool().names.clone()
}

fn pool_name(id: NameId) -> &'static str {
    pool().names.get(id.index()).copied().unwrap_or("")
}

/// A thread's lookup cache over the pool.
struct Cache {
    ids: FxHashMap<&'static str, NameId>,
    names: Vec<&'static str>,
}

impl Cache {
    fn id(&mut self, name: &str) -> NameId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let (id, leaked) = pool_intern(name);
        self.ids.insert(leaked, id);
        id
    }

    fn name(&mut self, id: NameId) -> &'static str {
        if let Some(&name) = self.names.get(id.index()) {
            return name;
        }
        // Catch up with every name the pool has handed out so far.
        let pool = pool();
        self.names
            .extend_from_slice(&pool.names[self.names.len()..]);
        self.names.get(id.index()).copied().unwrap_or("")
    }
}

thread_local! {
    static CACHE: RefCell<Cache> = const {
        RefCell::new(Cache {
            ids: HashMap::with_hasher(BuildHasherDefault::new()),
            names: Vec::new(),
        })
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_pointer_stable() {
        let a = NameId::of("names-test.a");
        assert_eq!(NameId::of("names-test.a"), a);
        assert_eq!(a.name(), "names-test.a");
        assert!(std::ptr::eq(
            intern_static("names-test.a"),
            intern_static("names-test.a")
        ));
        assert_ne!(NameId::of("names-test.b"), a);
    }

    #[test]
    fn ids_resolve_on_every_thread() {
        let id = std::thread::spawn(|| NameId::of("names-test.from-another-thread"))
            .join()
            .expect("interning thread");
        assert_eq!(id.name(), "names-test.from-another-thread");
        assert_eq!(NameId::of("names-test.from-another-thread"), id);
    }
}
