//! The R-OSGi wire protocol messages.
//!
//! One frame on the transport carries exactly one [`Message`]. The layout
//! is a tag byte followed by variant-specific fields in the compact
//! encoding of [`alfredo_net::wire`]; the benchmark harness serializes real
//! messages with this codec to obtain the byte counts it feeds into the
//! simulated links.

use alfredo_net::{ByteReader, ByteWriter, WireError};
use alfredo_obs::SpanCtx;
use alfredo_osgi::{Properties, ServiceCallError, ServiceInterfaceDesc, Value};

use crate::codec::{decode_properties, decode_value, encode_properties, encode_value};
use crate::lease::RemoteServiceInfo;
use crate::proxy::SmartProxySpec;
use crate::types::TypeDescriptor;

/// Protocol version spoken by this implementation.
pub const PROTOCOL_VERSION: u32 = 1;

/// A protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// First message in each direction: identity + protocol version.
    Hello {
        /// The sender's peer name.
        peer: String,
        /// Protocol version.
        version: u32,
    },
    /// The full list of services the sender offers (sent right after
    /// `Hello`, and again if the peer requests a resync).
    Lease {
        /// Offered services.
        services: Vec<RemoteServiceInfo>,
    },
    /// Incremental lease change.
    LeaseUpdate {
        /// Newly offered (or modified) services.
        added: Vec<RemoteServiceInfo>,
        /// Remote ids no longer offered.
        removed: Vec<u64>,
    },
    /// The sender's EventAdmin subscription patterns, so the peer knows
    /// which events are worth forwarding.
    EventInterest {
        /// Topic patterns (see [`alfredo_osgi::events::topic_matches`]).
        patterns: Vec<String>,
    },
    /// Request to ship the service registered under `interface`.
    FetchService {
        /// Interface name.
        interface: String,
    },
    /// The shipped service: interface, injected types, optional smart-proxy
    /// spec, and an optional opaque application descriptor (AlfredO's
    /// service descriptor rides here).
    ServiceBundle {
        /// The shipped method table.
        interface: ServiceInterfaceDesc,
        /// Struct types referenced by the interface.
        injected_types: Vec<TypeDescriptor>,
        /// Present if the service offers a smart proxy.
        smart_proxy: Option<SmartProxySpec>,
        /// Opaque application payload (e.g. an AlfredO descriptor).
        descriptor: Option<Vec<u8>>,
    },
    /// The peer could not ship the requested service.
    FetchFailed {
        /// Interface name.
        interface: String,
        /// Reason.
        reason: String,
    },
    /// A synchronous invocation request.
    Invoke {
        /// Correlation id, unique per outstanding call per direction.
        call_id: u64,
        /// Target interface.
        interface: String,
        /// Method name.
        method: String,
        /// Arguments.
        args: Vec<Value>,
    },
    /// The response to an [`Message::Invoke`].
    Response {
        /// Correlation id.
        call_id: u64,
        /// Outcome.
        result: Result<Value, ServiceCallError>,
    },
    /// A forwarded EventAdmin event.
    RemoteEvent {
        /// Topic.
        topic: String,
        /// Payload.
        properties: Properties,
    },
    /// Opens a byte stream (high-volume transfer).
    StreamOpen {
        /// Stream id, allocated by the sender.
        stream: u64,
        /// Application-level stream name.
        name: String,
    },
    /// One chunk of a stream.
    StreamChunk {
        /// Stream id.
        stream: u64,
        /// Chunk sequence number, starting at 0.
        seq: u64,
        /// Whether this is the final chunk.
        last: bool,
        /// Chunk payload.
        bytes: Vec<u8>,
    },
    /// Flow-control: grants the sender permission for more chunks.
    StreamCredit {
        /// Stream id.
        stream: u64,
        /// Additional chunks permitted.
        credits: u32,
    },
    /// Liveness probe.
    Ping {
        /// Echo payload.
        nonce: u64,
    },
    /// Liveness reply.
    Pong {
        /// Echoed payload.
        nonce: u64,
    },
    /// Orderly shutdown of the connection.
    Bye,
}

/// An `Invoke` frame decoded in place: `interface` and `method` borrow the
/// frame's bytes instead of allocating owned strings. Args are owned
/// [`Value`]s (their decode is owned regardless).
#[derive(Debug, PartialEq)]
pub struct BorrowedInvoke<'a> {
    /// Correlates the response to the caller.
    pub call_id: u64,
    /// Target interface name (borrowed from the frame).
    pub interface: &'a str,
    /// Method to invoke (borrowed from the frame).
    pub method: &'a str,
    /// Decoded arguments.
    pub args: Vec<Value>,
    /// Caller-side trace context, when the caller traced this call.
    pub trace: Option<SpanCtx>,
    /// The caller's remaining deadline in milliseconds at send time, when
    /// the caller propagates one. The serving side sheds the call (without
    /// executing it) once this budget has elapsed.
    pub deadline_ms: Option<u64>,
}

const TAG_HELLO: u8 = 1;
const TAG_LEASE: u8 = 2;
const TAG_LEASE_UPDATE: u8 = 3;
const TAG_EVENT_INTEREST: u8 = 4;
const TAG_FETCH_SERVICE: u8 = 5;
const TAG_SERVICE_BUNDLE: u8 = 6;
const TAG_FETCH_FAILED: u8 = 7;
const TAG_INVOKE: u8 = 8;
const TAG_RESPONSE: u8 = 9;
const TAG_REMOTE_EVENT: u8 = 10;
const TAG_STREAM_OPEN: u8 = 11;
const TAG_STREAM_CHUNK: u8 = 12;
const TAG_STREAM_CREDIT: u8 = 13;
const TAG_PING: u8 = 14;
const TAG_PONG: u8 = 15;
const TAG_BYE: u8 = 16;

/// Marker byte introducing the optional trailing trace-context field on
/// an `Invoke` frame.
const TRACE_CONTEXT_MARKER: u8 = 1;

/// Marker byte introducing the optional trailing deadline field on an
/// `Invoke` frame: the caller's remaining budget in milliseconds.
const DEADLINE_MARKER: u8 = 2;

/// The decoded optional trailing fields of an `Invoke` frame.
struct InvokeTrailer {
    trace: Option<SpanCtx>,
    deadline_ms: Option<u64>,
}

/// Reads the optional trailing fields of an `Invoke` frame. Each field is
/// a marker byte plus its payload; markers appear in strictly increasing
/// order (trace context, then deadline), and any subset — including none —
/// is valid. An empty trailer costs zero bytes, which keeps plain invokes
/// byte-identical to the pre-trailer wire format.
fn decode_invoke_trailer(r: &mut ByteReader<'_>) -> Result<InvokeTrailer, WireError> {
    let mut trailer = InvokeTrailer {
        trace: None,
        deadline_ms: None,
    };
    let mut last = 0u8;
    while !r.is_empty() {
        let marker = r.u8()?;
        if marker <= last {
            return Err(WireError::InvalidTag {
                context: "Invoke trailer (marker order)",
                tag: marker,
            });
        }
        last = marker;
        match marker {
            TRACE_CONTEXT_MARKER => {
                trailer.trace = Some(SpanCtx {
                    trace_id: r.varint()?,
                    span_id: r.varint()?,
                });
            }
            DEADLINE_MARKER => trailer.deadline_ms = Some(r.varint()?),
            other => {
                return Err(WireError::InvalidTag {
                    context: "Invoke trailer",
                    tag: other,
                });
            }
        }
    }
    Ok(trailer)
}

const ERR_NO_SUCH_METHOD: u8 = 0;
const ERR_BAD_ARGUMENTS: u8 = 1;
const ERR_FAILED: u8 = 2;
const ERR_SERVICE_GONE: u8 = 3;
const ERR_REMOTE: u8 = 4;
const ERR_BUSY: u8 = 5;
const ERR_DEADLINE: u8 = 6;

impl Message {
    /// Encodes the message into a frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Encodes the message into an existing writer (typically one checked
    /// out of a [`alfredo_net::BufferPool`]), producing bytes identical to
    /// [`Self::encode`] without allocating a fresh frame buffer.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        match self {
            Message::Hello { peer, version } => {
                w.put_u8(TAG_HELLO);
                w.put_str(peer);
                w.put_u32(*version);
            }
            Message::Lease { services } => {
                w.put_u8(TAG_LEASE);
                w.put_varint(services.len() as u64);
                for s in services {
                    s.encode(w);
                }
            }
            Message::LeaseUpdate { added, removed } => {
                w.put_u8(TAG_LEASE_UPDATE);
                w.put_varint(added.len() as u64);
                for s in added {
                    s.encode(w);
                }
                w.put_varint(removed.len() as u64);
                for id in removed {
                    w.put_varint(*id);
                }
            }
            Message::EventInterest { patterns } => {
                w.put_u8(TAG_EVENT_INTEREST);
                w.put_varint(patterns.len() as u64);
                for p in patterns {
                    w.put_str(p);
                }
            }
            Message::FetchService { interface } => {
                w.put_u8(TAG_FETCH_SERVICE);
                w.put_str(interface);
            }
            Message::ServiceBundle {
                interface,
                injected_types,
                smart_proxy,
                descriptor,
            } => {
                w.put_u8(TAG_SERVICE_BUNDLE);
                w.put_bytes(&interface.encode());
                w.put_varint(injected_types.len() as u64);
                for t in injected_types {
                    t.encode(w);
                }
                match smart_proxy {
                    Some(spec) => {
                        w.put_bool(true);
                        spec.encode(w);
                    }
                    None => w.put_bool(false),
                }
                match descriptor {
                    Some(d) => {
                        w.put_bool(true);
                        w.put_bytes(d);
                    }
                    None => w.put_bool(false),
                }
            }
            Message::FetchFailed { interface, reason } => {
                w.put_u8(TAG_FETCH_FAILED);
                w.put_str(interface);
                w.put_str(reason);
            }
            Message::Invoke {
                call_id,
                interface,
                method,
                args,
            } => Message::encode_invoke(w, *call_id, interface, method, args, None, None),
            Message::Response { call_id, result } => Message::encode_response(w, *call_id, result),
            Message::RemoteEvent { topic, properties } => {
                Message::encode_remote_event(w, topic, properties);
            }
            Message::StreamOpen { stream, name } => {
                w.put_u8(TAG_STREAM_OPEN);
                w.put_varint(*stream);
                w.put_str(name);
            }
            Message::StreamChunk {
                stream,
                seq,
                last,
                bytes,
            } => Message::encode_stream_chunk(w, *stream, *seq, *last, bytes),
            Message::StreamCredit { stream, credits } => {
                w.put_u8(TAG_STREAM_CREDIT);
                w.put_varint(*stream);
                w.put_u32(*credits);
            }
            Message::Ping { nonce } => {
                w.put_u8(TAG_PING);
                w.put_u64(*nonce);
            }
            Message::Pong { nonce } => {
                w.put_u8(TAG_PONG);
                w.put_u64(*nonce);
            }
            Message::Bye => w.put_u8(TAG_BYE),
        }
    }

    /// Encodes an `Invoke` frame directly from borrowed parts, sparing
    /// the caller the `String`/`Vec` clones a [`Message::Invoke`] value
    /// would require. Wire-identical to encoding the owned message when
    /// `trace` is `None`.
    ///
    /// The trace context and deadline are **optional trailing fields**:
    /// with both disabled nothing is appended, so plain frames are
    /// byte-for-byte what PR 2 shipped (the wire-budget test pins this).
    /// With tracing enabled a marker byte plus two varints carry the
    /// caller's `trace_id`/`span_id` so the device side can parent its
    /// serve span under the caller's rpc span; with deadline propagation
    /// enabled a marker byte plus one varint carries the caller's
    /// remaining budget in milliseconds so the serving side can shed the
    /// call instead of executing already-expired work.
    pub fn encode_invoke(
        w: &mut ByteWriter,
        call_id: u64,
        interface: &str,
        method: &str,
        args: &[Value],
        trace: Option<SpanCtx>,
        deadline_ms: Option<u64>,
    ) {
        w.put_u8(TAG_INVOKE);
        w.put_varint(call_id);
        w.put_str(interface);
        w.put_str(method);
        w.put_varint(args.len() as u64);
        for a in args {
            encode_value(w, a);
        }
        if let Some(ctx) = trace {
            w.put_u8(TRACE_CONTEXT_MARKER);
            w.put_varint(ctx.trace_id);
            w.put_varint(ctx.span_id);
        }
        if let Some(ms) = deadline_ms {
            w.put_u8(DEADLINE_MARKER);
            w.put_varint(ms);
        }
    }

    /// Encodes a `RemoteEvent` frame directly from a borrowed topic and
    /// properties (no owned [`Message`] needed).
    pub fn encode_remote_event(w: &mut ByteWriter, topic: &str, properties: &Properties) {
        w.put_u8(TAG_REMOTE_EVENT);
        w.put_str(topic);
        encode_properties(w, properties);
    }

    /// Encodes a `Response` frame directly from a borrowed result.
    pub fn encode_response(
        w: &mut ByteWriter,
        call_id: u64,
        result: &Result<Value, ServiceCallError>,
    ) {
        w.put_u8(TAG_RESPONSE);
        w.put_varint(call_id);
        match result {
            Ok(v) => {
                w.put_bool(true);
                encode_value(w, v);
            }
            Err(e) => {
                w.put_bool(false);
                encode_call_error(w, e);
            }
        }
    }

    /// Encodes a `StreamChunk` frame directly from a borrowed payload
    /// slice, so stream senders never copy chunk data before framing.
    pub fn encode_stream_chunk(
        w: &mut ByteWriter,
        stream: u64,
        seq: u64,
        last: bool,
        bytes: &[u8],
    ) {
        w.put_u8(TAG_STREAM_CHUNK);
        w.put_varint(stream);
        w.put_varint(seq);
        w.put_bool(last);
        w.put_bytes(bytes);
    }

    /// Returns `true` if `frame` carries an `Invoke` message.
    pub fn is_invoke(frame: &[u8]) -> bool {
        frame.first() == Some(&TAG_INVOKE)
    }

    /// Decodes an `Invoke` frame with the interface and method names
    /// borrowed from the frame bytes, sparing the serve path two `String`
    /// allocations per call. Accepts exactly the frames [`Message::decode`]
    /// would turn into [`Message::Invoke`].
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed input or a non-`Invoke` tag.
    pub fn decode_invoke_borrowed(frame: &[u8]) -> Result<BorrowedInvoke<'_>, WireError> {
        let mut r = ByteReader::new(frame);
        let tag = r.u8()?;
        if tag != TAG_INVOKE {
            return Err(WireError::InvalidTag {
                context: "BorrowedInvoke",
                tag,
            });
        }
        let call_id = r.varint()?;
        let interface = r.str()?;
        let method = r.str()?;
        let n = r.varint()? as usize;
        let mut args = Vec::with_capacity(n.min(256));
        for _ in 0..n {
            args.push(decode_value(&mut r)?);
        }
        // The trailer decoder consumes the rest of the frame, rejecting
        // unknown markers — so trailing garbage still fails cleanly.
        let trailer = decode_invoke_trailer(&mut r)?;
        Ok(BorrowedInvoke {
            call_id,
            interface,
            method,
            args,
            trace: trailer.trace,
            deadline_ms: trailer.deadline_ms,
        })
    }

    /// Decodes a frame.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed input.
    pub fn decode(frame: &[u8]) -> Result<Message, WireError> {
        let mut r = ByteReader::new(frame);
        let msg = Self::decode_body(&mut r)?;
        if !r.is_empty() {
            return Err(WireError::InvalidTag {
                context: "Message (trailing bytes)",
                tag: 0,
            });
        }
        Ok(msg)
    }

    fn decode_body(r: &mut ByteReader<'_>) -> Result<Message, WireError> {
        let tag = r.u8()?;
        Ok(match tag {
            TAG_HELLO => Message::Hello {
                peer: r.str()?.to_owned(),
                version: r.u32()?,
            },
            TAG_LEASE => {
                let n = r.varint()? as usize;
                let mut services = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    services.push(RemoteServiceInfo::decode(r)?);
                }
                Message::Lease { services }
            }
            TAG_LEASE_UPDATE => {
                let n = r.varint()? as usize;
                let mut added = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    added.push(RemoteServiceInfo::decode(r)?);
                }
                let m = r.varint()? as usize;
                let mut removed = Vec::with_capacity(m.min(1024));
                for _ in 0..m {
                    removed.push(r.varint()?);
                }
                Message::LeaseUpdate { added, removed }
            }
            TAG_EVENT_INTEREST => {
                let n = r.varint()? as usize;
                let mut patterns = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    patterns.push(r.str()?.to_owned());
                }
                Message::EventInterest { patterns }
            }
            TAG_FETCH_SERVICE => Message::FetchService {
                interface: r.str()?.to_owned(),
            },
            TAG_SERVICE_BUNDLE => {
                let iface_bytes = r.bytes()?;
                let interface = ServiceInterfaceDesc::decode(iface_bytes)?;
                let n = r.varint()? as usize;
                let mut injected_types = Vec::with_capacity(n.min(256));
                for _ in 0..n {
                    injected_types.push(TypeDescriptor::decode(r)?);
                }
                let smart_proxy = if r.bool()? {
                    Some(SmartProxySpec::decode(r)?)
                } else {
                    None
                };
                let descriptor = if r.bool()? {
                    Some(r.bytes()?.to_vec())
                } else {
                    None
                };
                Message::ServiceBundle {
                    interface,
                    injected_types,
                    smart_proxy,
                    descriptor,
                }
            }
            TAG_FETCH_FAILED => Message::FetchFailed {
                interface: r.str()?.to_owned(),
                reason: r.str()?.to_owned(),
            },
            TAG_INVOKE => {
                let call_id = r.varint()?;
                let interface = r.str()?.to_owned();
                let method = r.str()?.to_owned();
                let n = r.varint()? as usize;
                let mut args = Vec::with_capacity(n.min(256));
                for _ in 0..n {
                    args.push(decode_value(r)?);
                }
                // The owned variant carries no trailer; consume and drop
                // the optional trailing fields so traced or deadlined
                // frames still decode (the borrowed path uses them).
                decode_invoke_trailer(r)?;
                Message::Invoke {
                    call_id,
                    interface,
                    method,
                    args,
                }
            }
            TAG_RESPONSE => {
                let call_id = r.varint()?;
                let result = if r.bool()? {
                    Ok(decode_value(r)?)
                } else {
                    Err(decode_call_error(r)?)
                };
                Message::Response { call_id, result }
            }
            TAG_REMOTE_EVENT => Message::RemoteEvent {
                topic: r.str()?.to_owned(),
                properties: decode_properties(r)?,
            },
            TAG_STREAM_OPEN => Message::StreamOpen {
                stream: r.varint()?,
                name: r.str()?.to_owned(),
            },
            TAG_STREAM_CHUNK => Message::StreamChunk {
                stream: r.varint()?,
                seq: r.varint()?,
                last: r.bool()?,
                bytes: r.bytes()?.to_vec(),
            },
            TAG_STREAM_CREDIT => Message::StreamCredit {
                stream: r.varint()?,
                credits: r.u32()?,
            },
            TAG_PING => Message::Ping { nonce: r.u64()? },
            TAG_PONG => Message::Pong { nonce: r.u64()? },
            TAG_BYE => Message::Bye,
            other => {
                return Err(WireError::InvalidTag {
                    context: "Message",
                    tag: other,
                })
            }
        })
    }

    /// The encoded size of this message in bytes (payload only, without
    /// link-level overhead). Used by the benchmark harness.
    pub fn wire_size(&self) -> usize {
        self.encode().len()
    }
}

fn encode_call_error(w: &mut ByteWriter, e: &ServiceCallError) {
    match e {
        ServiceCallError::NoSuchMethod(m) => {
            w.put_u8(ERR_NO_SUCH_METHOD);
            w.put_str(m);
        }
        ServiceCallError::BadArguments(m) => {
            w.put_u8(ERR_BAD_ARGUMENTS);
            w.put_str(m);
        }
        ServiceCallError::Failed(m) => {
            w.put_u8(ERR_FAILED);
            w.put_str(m);
        }
        ServiceCallError::ServiceGone => w.put_u8(ERR_SERVICE_GONE),
        ServiceCallError::Remote(m) => {
            w.put_u8(ERR_REMOTE);
            w.put_str(m);
        }
        ServiceCallError::Busy { retry_after_ms } => {
            w.put_u8(ERR_BUSY);
            w.put_varint(*retry_after_ms);
        }
        ServiceCallError::DeadlineExceeded => w.put_u8(ERR_DEADLINE),
    }
}

fn decode_call_error(r: &mut ByteReader<'_>) -> Result<ServiceCallError, WireError> {
    let tag = r.u8()?;
    Ok(match tag {
        ERR_NO_SUCH_METHOD => ServiceCallError::NoSuchMethod(r.str()?.to_owned()),
        ERR_BAD_ARGUMENTS => ServiceCallError::BadArguments(r.str()?.to_owned()),
        ERR_FAILED => ServiceCallError::Failed(r.str()?.to_owned()),
        ERR_SERVICE_GONE => ServiceCallError::ServiceGone,
        ERR_REMOTE => ServiceCallError::Remote(r.str()?.to_owned()),
        ERR_BUSY => ServiceCallError::Busy {
            retry_after_ms: r.varint()?,
        },
        ERR_DEADLINE => ServiceCallError::DeadlineExceeded,
        other => {
            return Err(WireError::InvalidTag {
                context: "ServiceCallError",
                tag: other,
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alfredo_osgi::{MethodSpec, ParamSpec, TypeHint};

    fn sample_messages() -> Vec<Message> {
        let iface = ServiceInterfaceDesc::new(
            "t.Svc",
            vec![MethodSpec::new(
                "m",
                vec![ParamSpec::new("x", TypeHint::I64)],
                TypeHint::Str,
                "doc",
            )],
        );
        vec![
            Message::Hello {
                peer: "phone".into(),
                version: PROTOCOL_VERSION,
            },
            Message::Lease {
                services: vec![RemoteServiceInfo::new(
                    vec!["a.B".into()],
                    Properties::new().with("k", 1i64),
                    3,
                )],
            },
            Message::LeaseUpdate {
                added: vec![],
                removed: vec![1, 2, 3],
            },
            Message::EventInterest {
                patterns: vec!["mouse/*".into()],
            },
            Message::FetchService {
                interface: "a.B".into(),
            },
            Message::ServiceBundle {
                interface: iface.clone(),
                injected_types: vec![TypeDescriptor::new("p.T").with_field("f", TypeHint::I64)],
                smart_proxy: Some(SmartProxySpec::new("key", vec!["m".into()])),
                descriptor: Some(vec![1, 2, 3]),
            },
            Message::ServiceBundle {
                interface: iface,
                injected_types: vec![],
                smart_proxy: None,
                descriptor: None,
            },
            Message::FetchFailed {
                interface: "a.B".into(),
                reason: "not offered".into(),
            },
            Message::Invoke {
                call_id: 77,
                interface: "a.B".into(),
                method: "m".into(),
                args: vec![Value::I64(1), Value::from("s")],
            },
            Message::Response {
                call_id: 77,
                result: Ok(Value::from("out")),
            },
            Message::Response {
                call_id: 78,
                result: Err(ServiceCallError::NoSuchMethod("z".into())),
            },
            Message::Response {
                call_id: 79,
                result: Err(ServiceCallError::ServiceGone),
            },
            Message::Response {
                call_id: 80,
                result: Err(ServiceCallError::Busy { retry_after_ms: 7 }),
            },
            Message::Response {
                call_id: 81,
                result: Err(ServiceCallError::DeadlineExceeded),
            },
            Message::RemoteEvent {
                topic: "mouse/snapshot".into(),
                properties: Properties::new().with("seq", 5i64),
            },
            Message::StreamOpen {
                stream: 1,
                name: "snapshot".into(),
            },
            Message::StreamChunk {
                stream: 1,
                seq: 0,
                last: false,
                bytes: vec![0; 100],
            },
            Message::StreamCredit {
                stream: 1,
                credits: 4,
            },
            Message::Ping { nonce: 0xdead },
            Message::Pong { nonce: 0xdead },
            Message::Bye,
        ]
    }

    #[test]
    fn all_variants_round_trip() {
        for msg in sample_messages() {
            let frame = msg.encode();
            let back = Message::decode(&frame).unwrap_or_else(|e| panic!("{msg:?}: {e}"));
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut frame = Message::Bye.encode();
        frame.push(0);
        assert!(Message::decode(&frame).is_err());
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(matches!(
            Message::decode(&[0xee]),
            Err(WireError::InvalidTag { .. })
        ));
        assert!(Message::decode(&[]).is_err());
    }

    #[test]
    fn truncation_never_panics() {
        for msg in sample_messages() {
            let frame = msg.encode();
            for cut in 0..frame.len() {
                let _ = Message::decode(&frame[..cut]);
            }
        }
    }

    #[test]
    fn invoke_trailer_roundtrips_every_subset() {
        let trace = Some(SpanCtx {
            trace_id: 0xDEAD_BEEF,
            span_id: 42,
        });
        for (t, d) in [
            (None, None),
            (trace, None),
            (None, Some(250u64)),
            (trace, Some(250u64)),
        ] {
            let mut w = ByteWriter::new();
            Message::encode_invoke(&mut w, 9, "a.B", "m", &[Value::I64(1)], t, d);
            let frame = w.into_bytes();
            let inv = Message::decode_invoke_borrowed(&frame).unwrap();
            assert_eq!(inv.trace, t);
            assert_eq!(inv.deadline_ms, d);
            // The owned decoder drops the trailer but must accept it.
            assert!(matches!(
                Message::decode(&frame).unwrap(),
                Message::Invoke { call_id: 9, .. }
            ));
        }
    }

    #[test]
    fn invoke_trailer_rejects_bad_markers() {
        let mut w = ByteWriter::new();
        Message::encode_invoke(&mut w, 9, "a.B", "m", &[], None, None);
        let plain = w.into_bytes();

        // Unknown marker byte.
        let mut bad = plain.clone();
        bad.extend_from_slice(&[9, 0]);
        assert!(Message::decode_invoke_borrowed(&bad).is_err());
        assert!(Message::decode(&bad).is_err());

        // Deadline before trace violates the canonical marker order.
        let mut w = ByteWriter::new();
        w.put_raw(&plain);
        w.put_u8(2);
        w.put_varint(10);
        w.put_u8(1);
        w.put_varint(1);
        w.put_varint(2);
        let out_of_order = w.into_bytes();
        assert!(Message::decode_invoke_borrowed(&out_of_order).is_err());

        // A duplicated marker is caught by the same ordering rule.
        let mut dup = plain.clone();
        dup.extend_from_slice(&[2, 10, 2, 10]);
        assert!(Message::decode_invoke_borrowed(&dup).is_err());
    }

    #[test]
    fn invoke_message_is_small() {
        // The paper's scalability figures involve tiny invocation messages;
        // ours must also be tens of bytes, not kilobytes.
        let m = Message::Invoke {
            call_id: 1,
            interface: "apps.MouseController".into(),
            method: "move".into(),
            args: vec![Value::I64(5), Value::I64(-3)],
        };
        assert!(m.wire_size() < 64, "{}", m.wire_size());
    }

    #[test]
    fn service_bundle_carries_the_two_kilobyte_payload() {
        // Table 1: "about 2 kBytes" shipped per application. A realistic
        // interface with descriptor payload should be in that ballpark.
        let methods: Vec<MethodSpec> = (0..10)
            .map(|i| {
                MethodSpec::new(
                    format!("method_{i}"),
                    vec![
                        ParamSpec::new("a", TypeHint::I64),
                        ParamSpec::new("b", TypeHint::Str),
                    ],
                    TypeHint::Map,
                    "A method of the shipped interface with documentation.",
                )
            })
            .collect();
        let m = Message::ServiceBundle {
            interface: ServiceInterfaceDesc::new("apps.AlfredOShop", methods),
            injected_types: vec![TypeDescriptor::new("shop.Product")
                .with_field("name", TypeHint::Str)
                .with_field("price", TypeHint::I64)
                .with_field("details", TypeHint::Map)],
            smart_proxy: None,
            descriptor: Some(vec![0u8; 1024]),
        };
        let size = m.wire_size();
        assert!((1_200..4_096).contains(&size), "bundle size {size}");
    }
}
