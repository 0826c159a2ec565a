//! Shippable bundle artifacts and the code registry.
//!
//! In the JVM original, R-OSGi builds a proxy *bundle* — a JAR with
//! generated classes — ships it, and the receiving framework loads the
//! classes dynamically. Rust links statically, so this crate substitutes a
//! faithful data-level equivalent (`DESIGN.md` §2):
//!
//! * A [`BundleArtifact`] is the serialized form of a bundle: a
//!   [`Manifest`] plus entries that are either **data** (descriptors, UI
//!   descriptions — pure bytes, interpretable, sandbox-safe) or
//!   **activator keys** — symbolic names resolved against the receiving
//!   process's [`CodeRegistry`] of statically compiled activator factories.
//! * The observable lifecycle is unchanged: bytes arrive, the artifact is
//!   *installed* (a bundle appears), *started* (services appear), and
//!   later *uninstalled* (services vanish) — exactly the sequence whose
//!   cost Table 1 of the paper decomposes.
//!
//! The security distinction AlfredO draws — a stateless UI description is
//! sandbox-safe, executable logic requires trust — maps here to
//! [`BundleArtifact::is_code_bearing`].

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

use alfredo_sync::Mutex;

use alfredo_net::{ByteReader, ByteWriter};

use crate::bundle::{BundleActivator, BundleContext, BundleId};
use crate::error::OsgiError;
use crate::framework::Framework;

/// Bundle metadata shipped at the head of an artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Reverse-domain symbolic name.
    pub symbolic_name: String,
    /// Version string.
    pub version: String,
    /// Human-readable description.
    pub description: String,
}

impl Manifest {
    /// Creates a manifest.
    pub fn new(
        symbolic_name: impl Into<String>,
        version: impl Into<String>,
        description: impl Into<String>,
    ) -> Self {
        Manifest {
            symbolic_name: symbolic_name.into(),
            version: version.into(),
            description: description.into(),
        }
    }
}

/// One entry of a bundle artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactEntry {
    /// Executable behaviour, referenced symbolically: the receiving side
    /// must hold a factory for `key` in its [`CodeRegistry`].
    Activator {
        /// Registry key, e.g. `"rosgi.proxy/v1"`.
        key: String,
    },
    /// Inert named data (descriptors, UI descriptions, images…).
    Data {
        /// Entry name, e.g. `"descriptor.bin"`.
        name: String,
        /// Entry contents.
        bytes: Vec<u8>,
    },
}

const TAG_ACTIVATOR: u8 = 1;
const TAG_DATA: u8 = 2;

/// A serialized, shippable bundle.
///
/// # Example
///
/// ```
/// use alfredo_osgi::{ArtifactEntry, BundleArtifact, Manifest};
///
/// let artifact = BundleArtifact::new(Manifest::new("demo", "1.0", "a demo"))
///     .with_data("descriptor.bin", vec![1, 2, 3]);
/// assert!(!artifact.is_code_bearing());
/// let bytes = artifact.encode();
/// let back = BundleArtifact::decode(&bytes).unwrap();
/// assert_eq!(artifact, back);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BundleArtifact {
    /// The manifest.
    pub manifest: Manifest,
    /// Ordered entries.
    pub entries: Vec<ArtifactEntry>,
}

impl BundleArtifact {
    /// Creates an artifact with no entries.
    pub fn new(manifest: Manifest) -> Self {
        BundleArtifact {
            manifest,
            entries: Vec::new(),
        }
    }

    /// Builder-style: adds an activator-key entry.
    pub fn with_activator(mut self, key: impl Into<String>) -> Self {
        self.entries
            .push(ArtifactEntry::Activator { key: key.into() });
        self
    }

    /// Builder-style: adds a data entry.
    pub fn with_data(mut self, name: impl Into<String>, bytes: Vec<u8>) -> Self {
        self.entries.push(ArtifactEntry::Data {
            name: name.into(),
            bytes,
        });
        self
    }

    /// Whether the artifact references executable behaviour. Data-only
    /// artifacts are sandbox-safe in AlfredO's security model.
    pub fn is_code_bearing(&self) -> bool {
        self.entries
            .iter()
            .any(|e| matches!(e, ArtifactEntry::Activator { .. }))
    }

    /// The activator keys, in order.
    pub fn activator_keys(&self) -> Vec<&str> {
        self.entries
            .iter()
            .filter_map(|e| match e {
                ArtifactEntry::Activator { key } => Some(key.as_str()),
                ArtifactEntry::Data { .. } => None,
            })
            .collect()
    }

    /// Looks up a data entry by name.
    pub fn data(&self, name: &str) -> Option<&[u8]> {
        self.entries.iter().find_map(|e| match e {
            ArtifactEntry::Data { name: n, bytes } if n == name => Some(bytes.as_slice()),
            _ => None,
        })
    }

    /// Encodes the artifact to its wire form. The length of this encoding
    /// is the artifact's *file footprint* — the quantity §4.1 of the paper
    /// reports in kBytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_str(&self.manifest.symbolic_name);
        w.put_str(&self.manifest.version);
        w.put_str(&self.manifest.description);
        w.put_varint(self.entries.len() as u64);
        for e in &self.entries {
            match e {
                ArtifactEntry::Activator { key } => {
                    w.put_u8(TAG_ACTIVATOR);
                    w.put_str(key);
                }
                ArtifactEntry::Data { name, bytes } => {
                    w.put_u8(TAG_DATA);
                    w.put_str(name);
                    w.put_bytes(bytes);
                }
            }
        }
        w.into_bytes()
    }

    /// The length of [`BundleArtifact::encode`]'s output — the artifact's
    /// file footprint — computed without encoding.
    pub fn encoded_len(&self) -> usize {
        let sized = |len: usize| varint_len(len as u64) + len;
        let manifest = &self.manifest;
        let entries: usize = self
            .entries
            .iter()
            .map(|e| match e {
                ArtifactEntry::Activator { key } => 1 + sized(key.len()),
                ArtifactEntry::Data { name, bytes } => 1 + sized(name.len()) + sized(bytes.len()),
            })
            .sum();
        sized(manifest.symbolic_name.len())
            + sized(manifest.version.len())
            + sized(manifest.description.len())
            + varint_len(self.entries.len() as u64)
            + entries
    }

    /// Decodes an artifact from its wire form.
    ///
    /// # Errors
    ///
    /// Returns [`OsgiError::MalformedArtifact`] on any decoding failure.
    pub fn decode(bytes: &[u8]) -> Result<Self, OsgiError> {
        let mut r = ByteReader::new(bytes);
        let malformed = |e: alfredo_net::WireError| OsgiError::MalformedArtifact(e.to_string());
        let manifest = Manifest {
            symbolic_name: r.str().map_err(malformed)?.to_owned(),
            version: r.str().map_err(malformed)?.to_owned(),
            description: r.str().map_err(malformed)?.to_owned(),
        };
        let n = r.varint().map_err(malformed)? as usize;
        let mut entries = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let tag = r.u8().map_err(malformed)?;
            match tag {
                TAG_ACTIVATOR => entries.push(ArtifactEntry::Activator {
                    key: r.str().map_err(malformed)?.to_owned(),
                }),
                TAG_DATA => {
                    let name = r.str().map_err(malformed)?.to_owned();
                    let bytes = r.bytes().map_err(malformed)?.to_vec();
                    entries.push(ArtifactEntry::Data { name, bytes });
                }
                other => {
                    return Err(OsgiError::MalformedArtifact(format!(
                        "unknown entry tag {other:#04x}"
                    )))
                }
            }
        }
        if !r.is_empty() {
            return Err(OsgiError::MalformedArtifact(format!(
                "{} trailing bytes",
                r.remaining()
            )));
        }
        Ok(BundleArtifact { manifest, entries })
    }
}

/// Bytes [`ByteWriter::put_varint`] spends on `v`: seven bits a byte.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

type ActivatorFactory = Arc<dyn Fn() -> Box<dyn BundleActivator> + Send + Sync>;
type ServiceFactory = Arc<dyn Fn() -> Arc<dyn crate::service::Service> + Send + Sync>;

/// The process-local table of activator and service factories, keyed
/// symbolically.
///
/// This is the substitution point for JVM dynamic class loading: shipping a
/// code-bearing artifact only works if the receiver already holds (or
/// trusts and links) the referenced behaviour. Service factories serve the
/// same role for R-OSGi *smart proxies*, whose locally-executing half is
/// statically compiled code referenced by key. Cloning yields another
/// handle to the same table.
#[derive(Clone, Default)]
pub struct CodeRegistry {
    factories: Arc<Mutex<HashMap<String, ActivatorFactory>>>,
    service_factories: Arc<Mutex<HashMap<String, ServiceFactory>>>,
}

impl CodeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        CodeRegistry::default()
    }

    /// Registers a factory under `key`, replacing any previous entry.
    pub fn register<F>(&self, key: impl Into<String>, factory: F)
    where
        F: Fn() -> Box<dyn BundleActivator> + Send + Sync + 'static,
    {
        self.factories.lock().insert(key.into(), Arc::new(factory));
    }

    /// Whether `key` is resolvable.
    pub fn contains(&self, key: &str) -> bool {
        self.factories.lock().contains_key(key)
    }

    /// Instantiates the activator registered under `key`.
    ///
    /// # Errors
    ///
    /// Returns [`OsgiError::UnknownActivatorKey`] if absent.
    pub fn instantiate(&self, key: &str) -> Result<Box<dyn BundleActivator>, OsgiError> {
        let factory = {
            let factories = self.factories.lock();
            factories
                .get(key)
                .cloned()
                .ok_or_else(|| OsgiError::UnknownActivatorKey(key.to_owned()))?
        };
        Ok(factory())
    }

    /// Registered activator keys, sorted.
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self.factories.lock().keys().cloned().collect();
        keys.sort();
        keys
    }

    /// Registers a service factory under `key` (used for the local half of
    /// R-OSGi smart proxies), replacing any previous entry.
    pub fn register_service<F>(&self, key: impl Into<String>, factory: F)
    where
        F: Fn() -> Arc<dyn crate::service::Service> + Send + Sync + 'static,
    {
        self.service_factories
            .lock()
            .insert(key.into(), Arc::new(factory));
    }

    /// Whether a service factory is registered under `key`.
    pub fn contains_service(&self, key: &str) -> bool {
        self.service_factories.lock().contains_key(key)
    }

    /// Instantiates the service registered under `key`.
    ///
    /// # Errors
    ///
    /// Returns [`OsgiError::UnknownActivatorKey`] if absent.
    pub fn instantiate_service(
        &self,
        key: &str,
    ) -> Result<Arc<dyn crate::service::Service>, OsgiError> {
        let factory = {
            let factories = self.service_factories.lock();
            factories
                .get(key)
                .cloned()
                .ok_or_else(|| OsgiError::UnknownActivatorKey(key.to_owned()))?
        };
        Ok(factory())
    }

    /// Installs `artifact` into `framework`: resolves every activator key,
    /// then installs a bundle carrying the data entries. The bundle is left
    /// in `Installed` state; callers start it explicitly (that's the
    /// "Install proxy bundle" / "Start proxy bundle" split of Table 1).
    ///
    /// # Errors
    ///
    /// Returns [`OsgiError::UnknownActivatorKey`] if any key is
    /// unresolvable; in that case nothing is installed.
    pub fn install_artifact(
        &self,
        framework: &Framework,
        artifact: &BundleArtifact,
    ) -> Result<BundleId, OsgiError> {
        let mut activators = Vec::new();
        for key in artifact.activator_keys() {
            activators.push(self.instantiate(key)?);
        }
        let entries: BTreeMap<String, Vec<u8>> = artifact
            .entries
            .iter()
            .filter_map(|e| match e {
                ArtifactEntry::Data { name, bytes } => Some((name.clone(), bytes.clone())),
                ArtifactEntry::Activator { .. } => None,
            })
            .collect();
        let activator: Box<dyn BundleActivator> = Box::new(CompositeActivator { activators });
        Ok(framework.install_with_entries(
            artifact.manifest.symbolic_name.clone(),
            artifact.manifest.version.clone(),
            activator,
            entries,
        ))
    }
}

impl fmt::Debug for CodeRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CodeRegistry")
            .field("keys", &self.keys())
            .finish()
    }
}

/// Runs several activators in sequence (artifacts may carry more than one).
struct CompositeActivator {
    activators: Vec<Box<dyn BundleActivator>>,
}

impl BundleActivator for CompositeActivator {
    fn start(&mut self, ctx: &BundleContext) -> Result<(), String> {
        for a in &mut self.activators {
            a.start(ctx)?;
        }
        Ok(())
    }

    fn stop(&mut self, ctx: &BundleContext) -> Result<(), String> {
        let mut first_err = None;
        for a in &mut self.activators {
            if let Err(e) = a.stop(ctx) {
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(()), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::BundleState;
    use crate::properties::Properties;
    use crate::service::FnService;
    use crate::value::Value;

    struct RegisterOne(&'static str);

    impl BundleActivator for RegisterOne {
        fn start(&mut self, ctx: &BundleContext) -> Result<(), String> {
            ctx.register_service(
                &[self.0],
                Arc::new(FnService::new(|_, _| Ok(Value::Unit))),
                Properties::new(),
            )
            .map_err(|e| e.to_string())?;
            Ok(())
        }

        fn stop(&mut self, _ctx: &BundleContext) -> Result<(), String> {
            Ok(())
        }
    }

    fn sample() -> BundleArtifact {
        BundleArtifact::new(Manifest::new("demo.proxy", "0.3", "generated proxy"))
            .with_activator("proxy/v1")
            .with_data("descriptor.bin", vec![9, 8, 7])
            .with_data("ui.bin", vec![1])
    }

    #[test]
    fn artifact_round_trips() {
        let a = sample();
        let bytes = a.encode();
        assert_eq!(BundleArtifact::decode(&bytes).unwrap(), a);
    }

    #[test]
    fn encoded_len_matches_the_encoding() {
        let empty = BundleArtifact::new(Manifest::new("", "", ""));
        let data_only = BundleArtifact::new(Manifest::new("d", "1", "data"))
            .with_data("x", vec![])
            .with_data("y".repeat(127), vec![3; 128]);
        // A proxy bundle's shape: interface plus a shipped descriptor, at
        // sizes either side of the one- and two-byte varint boundaries.
        let carrying = |len: usize| {
            BundleArtifact::new(Manifest::new(
                "rosgi.proxy.demo.Svc",
                "1.0",
                "generated proxy for demo.Svc".repeat(5),
            ))
            .with_data("interface.bin", vec![1; 300])
            .with_data("descriptor.bin", vec![7; len])
        };
        let mut artifacts = vec![empty, data_only, sample()];
        artifacts.extend([0, 127, 128, 2_600, 16_383, 16_384, 200_000].map(carrying));
        for a in artifacts {
            assert_eq!(a.encoded_len(), a.encode().len(), "{:?}", a.manifest);
        }
    }

    #[test]
    fn artifact_accessors() {
        let a = sample();
        assert!(a.is_code_bearing());
        assert_eq!(a.activator_keys(), vec!["proxy/v1"]);
        assert_eq!(a.data("descriptor.bin"), Some(&[9u8, 8, 7][..]));
        assert_eq!(a.data("missing"), None);
        let data_only = BundleArtifact::new(Manifest::new("d", "1", "")).with_data("x", vec![]);
        assert!(!data_only.is_code_bearing());
    }

    #[test]
    fn malformed_artifacts_rejected() {
        let bytes = sample().encode();
        // Truncation.
        assert!(matches!(
            BundleArtifact::decode(&bytes[..bytes.len() - 2]),
            Err(OsgiError::MalformedArtifact(_))
        ));
        // Trailing garbage.
        let mut extended = bytes.clone();
        extended.push(0xff);
        assert!(matches!(
            BundleArtifact::decode(&extended),
            Err(OsgiError::MalformedArtifact(_))
        ));
        // Bad tag.
        let bad = BundleArtifact::new(Manifest::new("x", "1", "")).encode();
        let mut bad2 = bad.clone();
        bad2[bad.len() - 1] = 1; // one entry claimed
        bad2.push(0x77); // invalid tag
        assert!(BundleArtifact::decode(&bad2).is_err());
    }

    #[test]
    fn code_registry_resolves_keys() {
        let code = CodeRegistry::new();
        assert!(!code.contains("proxy/v1"));
        code.register("proxy/v1", || Box::new(RegisterOne("proxied.Svc")));
        assert!(code.contains("proxy/v1"));
        assert_eq!(code.keys(), vec!["proxy/v1".to_owned()]);
        assert!(code.instantiate("proxy/v1").is_ok());
        assert!(matches!(
            code.instantiate("missing"),
            Err(OsgiError::UnknownActivatorKey(_))
        ));
    }

    #[test]
    fn install_artifact_end_to_end() {
        let fw = Framework::new();
        let code = CodeRegistry::new();
        code.register("proxy/v1", || Box::new(RegisterOne("proxied.Svc")));
        let id = code.install_artifact(&fw, &sample()).unwrap();
        assert_eq!(fw.bundle(id).unwrap().state, BundleState::Installed);
        // Data entries are visible on the installed bundle.
        assert_eq!(fw.bundle_entry(id, "descriptor.bin"), Some(vec![9, 8, 7]));
        // Starting the bundle runs the keyed activator.
        fw.start_bundle(id).unwrap();
        assert!(fw.registry().get_service("proxied.Svc").is_some());
        // Uninstall sweeps the proxied service — the paper's
        // "proxy bundles … are immediately uninstalled as soon as the
        // interaction is terminated".
        fw.uninstall(id).unwrap();
        assert!(fw.registry().get_service("proxied.Svc").is_none());
    }

    #[test]
    fn install_artifact_with_unknown_key_installs_nothing() {
        let fw = Framework::new();
        let code = CodeRegistry::new();
        let before = fw.bundles().len();
        assert!(matches!(
            code.install_artifact(&fw, &sample()),
            Err(OsgiError::UnknownActivatorKey(_))
        ));
        assert_eq!(fw.bundles().len(), before);
    }

    #[test]
    fn composite_activator_runs_all_and_reports_first_stop_error() {
        struct Failing;
        impl BundleActivator for Failing {
            fn start(&mut self, _: &BundleContext) -> Result<(), String> {
                Ok(())
            }
            fn stop(&mut self, _: &BundleContext) -> Result<(), String> {
                Err("stop failed".into())
            }
        }
        let fw = Framework::new();
        let code = CodeRegistry::new();
        code.register("a", || Box::new(RegisterOne("svc.A")));
        code.register("b", || Box::new(RegisterOne("svc.B")));
        code.register("failing", || Box::new(Failing));
        let artifact = BundleArtifact::new(Manifest::new("multi", "1", ""))
            .with_activator("a")
            .with_activator("failing")
            .with_activator("b");
        let id = code.install_artifact(&fw, &artifact).unwrap();
        fw.start_bundle(id).unwrap();
        assert!(fw.registry().get_service("svc.A").is_some());
        assert!(fw.registry().get_service("svc.B").is_some());
        // Stop errors surface as framework events but do not abort the stop.
        fw.stop_bundle(id).unwrap();
        assert!(fw.registry().get_service("svc.A").is_none());
    }
}
