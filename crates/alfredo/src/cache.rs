//! Content-addressed tier-artifact cache (phone side).
//!
//! Every fetch of a presentation/logic tier ships the same artifacts —
//! interface description, injected types, smart-proxy offer, descriptor
//! — as a [`ServiceParts`] bundle. The bundle's canonical wire encoding
//! has a stable content digest ([`ServiceParts::digest`]), which the
//! device advertises in its lease under
//! [`alfredo_rosgi::PROP_TIER_DIGEST`] (see [`crate::host_service`]).
//!
//! The [`TierCache`] keys retained bundles by that digest. On a repeat
//! interaction the phone compares the advertised digest against the
//! cache and, on a hit, installs the proxy from the cached parts via
//! [`alfredo_rosgi::RemoteEndpoint::install_cached_service`] — zero tier
//! bytes cross the wire, and the `tier_transfer` phase collapses to a
//! digest comparison. Because the digest comes from the *live* lease, a
//! hit can never resurrect a stale service: if the device changed the
//! service, the digest changed with it and the phone fetches fresh.
//!
//! Eviction is LRU under a byte budget (an artifact's cost is its
//! canonical encoding's length — exactly the bytes a cache hit saves).
//!
//! An entry is a shared `CachedTier`: beside the parts it keeps the
//! [`ServiceDescriptor`] decoded and validated from them the first time an
//! acquire needed it, and the view rendered from that descriptor (the
//! [`RenderedUi`] and the initial [`UiState`]) for the
//! [`DeviceCapabilities`] it was rendered for. A warm walk-up neither
//! copies the parts, nor parses the descriptor, nor renders it again: it
//! shares the descriptor and the rendered UI and clones the state.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use alfredo_obs::{Counter, Gauge, Obs};
use alfredo_osgi::Value;
use alfredo_rosgi::{FetchedService, RemoteEndpoint, RosgiError, ServiceParts, PROP_TIER_DIGEST};
use alfredo_sync::Mutex;
use alfredo_ui::render::{select_renderer, RenderedUi};
use alfredo_ui::{DeviceCapabilities, UiError, UiState};

use crate::descriptor::{DescriptorError, ServiceDescriptor};

/// Default byte budget: enough for dozens of descriptors (each ~2 kB,
/// §4.1) while staying phone-sized.
pub const DEFAULT_TIER_CACHE_BYTES: usize = 4 * 1024 * 1024;

/// Counter snapshot of a cache's lifetime activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierCacheStats {
    /// Lookups that found the advertised digest cached.
    pub hits: u64,
    /// Lookups that missed (not cached, or no digest advertised).
    pub misses: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Canonical bytes currently cached.
    pub bytes: usize,
}

/// One tier as the cache hands it out: the shipped parts and, once an
/// acquire has asked for them, the descriptor decoded from them and the
/// view rendered from that.
pub(crate) struct CachedTier {
    parts: ServiceParts,
    descriptor: OnceLock<Arc<ServiceDescriptor>>,
    /// The last view rendered, for the capabilities it was rendered for.
    view: Mutex<Option<Arc<TierView>>>,
}

/// A tier's descriptor rendered for one device.
pub(crate) struct TierView {
    capabilities: DeviceCapabilities,
    /// The name of the renderer that produced it.
    pub(crate) renderer: &'static str,
    pub(crate) rendered: Arc<RenderedUi>,
    /// The initial UI state; each session gets its own copy.
    pub(crate) state: UiState,
}

impl CachedTier {
    fn new(parts: ServiceParts) -> Self {
        CachedTier {
            parts,
            descriptor: OnceLock::new(),
            view: Mutex::new(None),
        }
    }

    /// This tier's `descriptor` rendered for `capabilities`: rendered on
    /// the first call for those capabilities, shared by every later one.
    /// A call for other capabilities renders anew and keeps that view.
    pub(crate) fn view(
        &self,
        descriptor: &ServiceDescriptor,
        capabilities: &DeviceCapabilities,
    ) -> Result<Arc<TierView>, UiError> {
        if let Some(view) = self.view.lock().as_ref() {
            if view.capabilities == *capabilities {
                return Ok(Arc::clone(view));
            }
        }
        let renderer = select_renderer(capabilities);
        let view = Arc::new(TierView {
            capabilities: capabilities.clone(),
            renderer: renderer.name(),
            rendered: Arc::new(renderer.render(&descriptor.ui, capabilities)?),
            state: UiState::from_description(&descriptor.ui),
        });
        *self.view.lock() = Some(Arc::clone(&view));
        Ok(view)
    }

    /// The descriptor the parts ship (`None` if they ship none), decoded
    /// and validated on the first call and shared by every later one.
    pub(crate) fn descriptor(&self) -> Result<Option<Arc<ServiceDescriptor>>, DescriptorError> {
        if let Some(descriptor) = self.descriptor.get() {
            return Ok(Some(Arc::clone(descriptor)));
        }
        let Some(bytes) = self.parts.descriptor.as_deref() else {
            return Ok(None);
        };
        let decoded = ServiceDescriptor::decode(bytes)?;
        decoded.validate()?;
        // Two racing first calls both decode; the first to land is kept.
        Ok(Some(Arc::clone(
            self.descriptor.get_or_init(|| Arc::new(decoded)),
        )))
    }
}

/// How [`TierCache::fetch`] came by a tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lookup {
    /// The advertised digest was cached: nothing crossed the wire.
    Hit,
    /// The advertised digest was not cached.
    Miss,
    /// The lease advertised no digest, so there was nothing to look up.
    NoDigest,
}

impl Lookup {
    /// The value of a phase span's `tier_cache` attribute.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Lookup::Hit => "hit",
            Lookup::Miss => "miss",
            Lookup::NoDigest => "no-digest",
        }
    }
}

struct CacheEntry {
    tier: Arc<CachedTier>,
    bytes: usize,
}

struct CacheState {
    entries: HashMap<u64, CacheEntry>,
    /// Recency order, least-recent first. Small (budget / ~2 kB entries),
    /// so the O(n) reorder on hit is noise next to the saved transfer.
    order: Vec<u64>,
    bytes: usize,
}

struct CacheInner {
    max_bytes: usize,
    state: Mutex<CacheState>,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    entries_gauge: Gauge,
    bytes_gauge: Gauge,
}

/// A content-addressed LRU cache of tier artifacts, shared by every
/// connection of one phone. Cloning yields another handle to the same
/// cache.
#[derive(Clone)]
pub struct TierCache {
    inner: Arc<CacheInner>,
}

impl TierCache {
    /// Creates a cache with the given byte budget, registering its
    /// hit/miss/eviction counters and size gauges on `obs`'s metrics
    /// registry (`alfredo.tier_cache.*`).
    pub fn new(max_bytes: usize, obs: &Obs) -> Self {
        let m = obs.metrics();
        TierCache {
            inner: Arc::new(CacheInner {
                max_bytes,
                state: Mutex::new(CacheState {
                    entries: HashMap::new(),
                    order: Vec::new(),
                    bytes: 0,
                }),
                hits: m.counter("alfredo.tier_cache.hits"),
                misses: m.counter("alfredo.tier_cache.misses"),
                evictions: m.counter("alfredo.tier_cache.evictions"),
                entries_gauge: m.gauge("alfredo.tier_cache.entries"),
                bytes_gauge: m.gauge("alfredo.tier_cache.bytes"),
            }),
        }
    }

    /// Installs `interface`'s tier on `endpoint`, going to the wire only
    /// on a miss — the one cache-or-fetch path of both `acquire` and a
    /// phone-bound migration. The live lease's advertised
    /// [`PROP_TIER_DIGEST`] is the key: a hit installs the cached parts
    /// with zero transfer; a miss, or a device that advertises no digest,
    /// pays the full fetch and caches what it shipped.
    pub(crate) fn fetch(
        &self,
        endpoint: &RemoteEndpoint,
        interface: &str,
    ) -> Result<(FetchedService, Arc<CachedTier>, Lookup), RosgiError> {
        let lookup = match advertised_digest(endpoint, interface) {
            Some(digest) => match self.get(digest) {
                Some(tier) => {
                    let fetched = endpoint.install_cached_service(&tier.parts)?;
                    return Ok((fetched, tier, Lookup::Hit));
                }
                None => Lookup::Miss,
            },
            None => {
                self.inner.misses.inc();
                Lookup::NoDigest
            }
        };
        let (fetched, parts) = endpoint.fetch_service_with_parts(interface)?;
        Ok((fetched, self.insert(parts), lookup))
    }

    /// Looks up the tier advertised under `digest`, refreshing its
    /// recency. Counts a hit or a miss.
    fn get(&self, digest: u64) -> Option<Arc<CachedTier>> {
        let inner = &self.inner;
        let mut state = inner.state.lock();
        if let Some(entry) = state.entries.get(&digest) {
            let tier = Arc::clone(&entry.tier);
            touch(&mut state.order, digest);
            drop(state);
            inner.hits.inc();
            Some(tier)
        } else {
            drop(state);
            inner.misses.inc();
            None
        }
    }

    /// Caches `parts` under their content digest, evicting
    /// least-recently-used entries until the budget holds, and returns the
    /// entry. Bundles larger than the whole budget are handed back
    /// uncached. Re-inserting an existing digest refreshes its recency and
    /// returns the entry already held (with its decoded descriptor).
    fn insert(&self, parts: ServiceParts) -> Arc<CachedTier> {
        let inner = &self.inner;
        let bytes = parts.canonical_bytes().len();
        if bytes > inner.max_bytes {
            return Arc::new(CachedTier::new(parts));
        }
        let digest = parts.digest();
        let mut state = inner.state.lock();
        if let Some(entry) = state.entries.get(&digest) {
            let tier = Arc::clone(&entry.tier);
            touch(&mut state.order, digest);
            return tier;
        }
        let mut evicted = 0u64;
        while state.bytes + bytes > inner.max_bytes {
            let oldest = state.order.remove(0);
            if let Some(e) = state.entries.remove(&oldest) {
                state.bytes -= e.bytes;
                evicted += 1;
            }
        }
        let tier = Arc::new(CachedTier::new(parts));
        state.entries.insert(
            digest,
            CacheEntry {
                tier: Arc::clone(&tier),
                bytes,
            },
        );
        state.order.push(digest);
        state.bytes += bytes;
        inner.entries_gauge.set(state.entries.len() as i64);
        inner.bytes_gauge.set(state.bytes as i64);
        drop(state);
        if evicted > 0 {
            inner.evictions.add(evicted);
        }
        tier
    }

    /// Lifetime counters and current size.
    pub fn stats(&self) -> TierCacheStats {
        let inner = &self.inner;
        let state = inner.state.lock();
        TierCacheStats {
            hits: inner.hits.get(),
            misses: inner.misses.get(),
            evictions: inner.evictions.get(),
            entries: state.entries.len(),
            bytes: state.bytes,
        }
    }
}

/// Moves `digest` to the most-recent end of the recency order.
fn touch(order: &mut Vec<u64>, digest: u64) {
    if let Some(pos) = order.iter().position(|d| *d == digest) {
        order.remove(pos);
    }
    order.push(digest);
}

/// The content digest `endpoint`'s live lease advertises for `interface`,
/// if any.
fn advertised_digest(endpoint: &RemoteEndpoint, interface: &str) -> Option<u64> {
    endpoint
        .remote_services()
        .iter()
        .find(|s| s.offers(interface))
        .and_then(|s| {
            s.properties
                .get(PROP_TIER_DIGEST)
                .and_then(Value::as_str)
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        })
}

impl std::fmt::Debug for TierCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TierCache")
            .field("max_bytes", &self.inner.max_bytes)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alfredo_osgi::{MethodSpec, ServiceInterfaceDesc, TypeHint};

    fn parts(name: &str, methods: usize) -> ServiceParts {
        let specs = (0..methods)
            .map(|i| MethodSpec::new(format!("m{i}"), vec![], TypeHint::Unit, "padding"))
            .collect();
        ServiceParts {
            interface: ServiceInterfaceDesc::new(name, specs),
            injected_types: Vec::new(),
            smart_proxy: None,
            descriptor: None,
        }
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let cache = TierCache::new(DEFAULT_TIER_CACHE_BYTES, &Obs::disabled());
        let p = parts("a.A", 1);
        let digest = p.digest();
        assert!(cache.get(digest).is_none());
        cache.insert(p.clone());
        let got = cache.get(digest).expect("cached");
        assert_eq!(got.parts.digest(), digest);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!(stats.bytes > 0);
    }

    #[test]
    fn distinct_content_distinct_digest() {
        assert_ne!(parts("a.A", 1).digest(), parts("a.B", 1).digest());
        assert_ne!(parts("a.A", 1).digest(), parts("a.A", 2).digest());
        assert_eq!(parts("a.A", 1).digest(), parts("a.A", 1).digest());
    }

    #[test]
    fn byte_budget_evicts_lru() {
        let one = parts("a.A", 1).canonical_bytes().len();
        // Room for roughly three of the small bundles.
        let cache = TierCache::new(one * 3 + one / 2, &Obs::disabled());
        let a = parts("a.A", 1);
        let b = parts("b.B", 1);
        let c = parts("c.C", 1);
        let d = parts("d.D", 1);
        cache.insert(a.clone());
        cache.insert(b.clone());
        cache.insert(c.clone());
        // Touch `a` so `b` is the least recently used.
        assert!(cache.get(a.digest()).is_some());
        cache.insert(d.clone());
        assert!(cache.get(b.digest()).is_none(), "LRU entry evicted");
        assert!(cache.get(a.digest()).is_some());
        assert!(cache.get(d.digest()).is_some());
        assert!(cache.stats().evictions >= 1);
        assert!(cache.stats().bytes <= one * 3 + one / 2);
    }

    #[test]
    fn descriptor_decodes_once_per_entry() {
        use alfredo_ui::{Control, UiDescription};
        let cache = TierCache::new(DEFAULT_TIER_CACHE_BYTES, &Obs::disabled());
        let descriptor = ServiceDescriptor::new(
            "a.A",
            UiDescription::new("a").with_control(Control::label("l", "x")),
        );
        let decoded = |tier: Arc<CachedTier>| tier.descriptor().expect("decodes");
        let mut p = parts("a.A", 1);
        p.descriptor = Some(descriptor.encode());
        let first = decoded(cache.insert(p.clone())).expect("shipped");
        assert_eq!(*first, descriptor);
        // A hit and a re-insert (a racing miss) both hand out the entry
        // already held, descriptor decoded.
        let hit = decoded(cache.get(p.digest()).expect("cached")).expect("shipped");
        let again = decoded(cache.insert(p)).expect("shipped");
        assert!(Arc::ptr_eq(&first, &hit) && Arc::ptr_eq(&first, &again));
        assert!(decoded(cache.insert(parts("b.B", 1))).is_none());
        let mut bad = parts("c.C", 1);
        bad.descriptor = Some(vec![0xff]);
        assert!(cache.insert(bad).descriptor().is_err());
    }

    #[test]
    fn oversized_bundle_is_not_cached() {
        let cache = TierCache::new(8, &Obs::disabled());
        let p = parts("big.Svc", 4);
        cache.insert(p.clone());
        assert!(cache.get(p.digest()).is_none());
        assert_eq!(cache.stats().entries, 0);
    }
}
