//! The client's persistent cache.
//!
//! Stores entity metadata (validators, type, size) and optionally bodies.
//! The revalidation experiments prime this cache — as if a first visit
//! already happened — and the client then issues the appropriate
//! conditional requests. The paper notes libwww's two-files-per-object
//! persistent cache became a bottleneck and was moved to a memory file
//! system; ours models the memory-backed variant (no I/O cost).

use httpwire::validators::{ETag, Validators};
use std::collections::HashMap;

/// One cached entity.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry {
    /// Validators learned from the response.
    pub validators: Validators,
    /// MIME type of the cached entity.
    pub content_type: String,
    /// Size of the cached body in bytes.
    pub body_len: usize,
    /// Image paths discovered when this entity was HTML (used to schedule
    /// revalidation of embedded objects without re-parsing).
    pub embedded: Vec<String>,
}

/// Path-keyed client cache.
#[derive(Debug, Clone, Default)]
pub struct ClientCache {
    // simlint: allow(hash-collections): keyed lookup only (get/insert by
    // path); never iterated, so map order cannot leak into a run.
    entries: HashMap<String, CacheEntry>,
}

impl ClientCache {
    /// Create a new, empty instance.
    pub fn new() -> Self {
        ClientCache::default()
    }

    /// Store or replace an entry.
    pub fn insert(&mut self, path: &str, entry: CacheEntry) {
        self.entries.insert(path.to_string(), entry);
    }

    /// Look up a cached entry by path.
    pub fn get(&self, path: &str) -> Option<&CacheEntry> {
        self.entries.get(path)
    }

    /// Whether an entry with this name exists.
    pub fn contains(&self, path: &str) -> bool {
        self.entries.contains_key(path)
    }

    /// Number of contained elements.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is contained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Convenience for priming from known content: derive the validators
    /// a server built with the same body/mtime would produce.
    pub fn prime(
        &mut self,
        path: &str,
        body: &[u8],
        content_type: &str,
        mtime: u64,
        embedded: Vec<String>,
    ) {
        self.insert(
            path,
            CacheEntry {
                validators: Validators {
                    etag: Some(ETag::derive(body, mtime)),
                    last_modified: Some(mtime),
                },
                content_type: content_type.to_string(),
                body_len: body.len(),
                embedded,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prime_and_lookup() {
        let mut c = ClientCache::new();
        c.prime("/x.gif", b"GIFDATA", "image/gif", 100, vec![]);
        assert!(c.contains("/x.gif"));
        let e = c.get("/x.gif").unwrap();
        assert_eq!(e.body_len, 7);
        assert_eq!(e.content_type, "image/gif");
        assert!(e.validators.etag.is_some());
        assert!(!c.contains("/y.gif"));
    }

    #[test]
    fn primed_etag_matches_server_derivation() {
        let mut c = ClientCache::new();
        c.prime("/a", b"same bytes", "text/plain", 42, vec![]);
        let server_side = ETag::derive(b"same bytes", 42);
        assert_eq!(c.get("/a").unwrap().validators.etag, Some(server_side));
    }

    #[test]
    fn embedded_list_preserved() {
        let mut c = ClientCache::new();
        c.prime(
            "/index.html",
            b"<html>",
            "text/html",
            1,
            vec!["/a.gif".into(), "/b.gif".into()],
        );
        assert_eq!(c.get("/index.html").unwrap().embedded.len(), 2);
    }
}
