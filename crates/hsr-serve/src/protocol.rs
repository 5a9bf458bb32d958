//! The wire protocol: newline-delimited JSON over TCP.
//!
//! One connection carries any number of requests; each line is one JSON
//! document. The client writes [`Request`] lines and reads [`Response`]
//! lines. Responses are **not** guaranteed to arrive in request order —
//! coalesced batches complete independently — so every request carries a
//! client-chosen id that its response echoes. The payload types mirror
//! the library vocabulary directly: an eval request wraps an
//! [`hsr_core::view::View`] (projection + per-view pipeline config) and
//! a successful response carries the full [`hsr_core::view::Report`],
//! bit-identical to what a local [`hsr_core::view::evaluate`] of the
//! same view on the same terrain returns (the JSON float codec is
//! round-trip exact for finite values).
//!
//! # Request encoding
//!
//! The original protocol had exactly one request shape — the bare
//! `{"id":…,"terrain":…,"view":…}` eval object — and deployed clients
//! still speak it. [`Request`] therefore keeps that bare object as the
//! encoding of [`Request::Eval`], while every admin message added with
//! the catalog (upload, register, list, info, delete, stats) uses the
//! externally tagged form `{"UploadTerrain":{…}}`. The two are
//! distinguished by the first object key, so the eval fast path costs
//! nothing and old traffic decodes unchanged.
//!
//! Uploads are **chunked**: [`Request::UploadTerrain`] declares name,
//! format, uploader, and total size, then [`Request::UploadChunk`] lines
//! carry base64 payload slices, each small enough that the server's
//! `max_line_bytes` cap still bounds per-connection memory. Every chunk
//! is acknowledged; the final chunk's response carries the committed
//! [`hsr_catalog::TerrainInfo`] in [`Payload::Upload`].
//!
//! # Reserved id 0
//!
//! Request id **0 is reserved for the server**: it is the id echoed on
//! error responses to lines so malformed that no client id could be
//! recovered (see [`salvage_id`]). A pipelined client that used id 0
//! itself could not tell such an error apart from the answer to its own
//! request, so the server rejects id-0 requests with
//! [`ErrorKind::BadRequest`] and well-behaved clients
//! ([`Client`](crate::client::Client)) never emit it. When a line *is*
//! valid JSON but fails to decode as a [`Request`] (for example a
//! malformed `view`), the server salvages the client's id from the text
//! so the error lands on the request that caused it.

use crate::server::ServeStats;
use hsr_catalog::{CatalogStats, TerrainFormat, TerrainInfo};
use hsr_core::view::{Report, View};
use hsr_obs::MetricsSnapshot;
use hsr_tile::CacheStats;

/// One visibility query: evaluate `view` against the hosted terrain
/// named `terrain`. On the wire this is the bare legacy object
/// `{"id":…,"terrain":…,"view":…}` (see [`Request::Eval`]).
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EvalRequest {
    /// Client-chosen correlation id, echoed in the [`Response`]. Ids are
    /// opaque to the server apart from one rule: **id 0 is reserved**
    /// for error responses to unrecoverable lines, and requests using it
    /// are rejected with [`ErrorKind::BadRequest`]. Clients pipelining
    /// requests on one connection should keep their ids distinct.
    pub id: u64,
    /// Name of a terrain registered with the server.
    pub terrain: String,
    /// The view to evaluate: projection plus per-view pipeline
    /// configuration.
    pub view: View,
}

/// Opens a chunked terrain upload on this connection.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct UploadBegin {
    /// Correlation id (the begin is acknowledged on its own).
    pub id: u64,
    /// Name to register the terrain under once the upload commits.
    pub name: String,
    /// How the uploaded bytes decode into a servable terrain.
    pub format: TerrainFormat,
    /// Provenance: who is uploading.
    pub uploader: String,
    /// Declared total payload size in bytes. The server rejects uploads
    /// that exceed the declaration (or its own `max_upload_bytes` cap)
    /// and refuses commits that fall short of it.
    pub bytes: u64,
}

/// One slice of an in-flight upload's payload.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct UploadChunk {
    /// Correlation id (every chunk is acknowledged individually).
    pub id: u64,
    /// Base64 (standard alphabet, padded) slice of the raw payload.
    pub data: String,
    /// True on the final chunk: the server validates, commits, and
    /// registers, answering with [`Payload::Upload`].
    pub last: bool,
}

/// Binds a name to content already in the catalog — the alias/rename
/// path that moves no payload bytes.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RegisterRequest {
    /// Correlation id.
    pub id: u64,
    /// Name to bind.
    pub name: String,
    /// Lowercase-hex SHA-256 of an existing blob.
    pub content: String,
    /// How the blob decodes into a servable terrain.
    pub format: TerrainFormat,
    /// Provenance: who is registering.
    pub uploader: String,
}

/// A request addressing one catalog entry by name.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct NameRequest {
    /// Correlation id.
    pub id: u64,
    /// The entry's name.
    pub name: String,
}

/// A request with no operand beyond its id.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct IdRequest {
    /// Correlation id.
    pub id: u64,
}

/// One request line.
///
/// [`Request::Eval`] encodes as the bare legacy object; every other
/// variant is externally tagged (`{"ListTerrains":{"id":7}}`). See the
/// [module docs](self) for the compatibility rationale.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// A visibility query (the original protocol, encoding unchanged).
    Eval(EvalRequest),
    /// Open a chunked terrain upload.
    UploadTerrain(UploadBegin),
    /// One payload slice of the connection's in-flight upload.
    UploadChunk(UploadChunk),
    /// Bind a name to existing catalog content.
    RegisterTerrain(RegisterRequest),
    /// List every cataloged terrain ([`Payload::Terrains`]).
    ListTerrains(IdRequest),
    /// Look up one cataloged terrain ([`Payload::Terrain`]).
    TerrainInfo(NameRequest),
    /// Unbind a name ([`Payload::Deleted`] echoes the removed entry).
    DeleteTerrain(NameRequest),
    /// Snapshot the server's counters ([`Payload::Stats`]).
    Stats(IdRequest),
    /// Snapshot the observability recorder — latency histograms, event
    /// counters, and recent/slow span trees ([`Payload::Metrics`]).
    /// Servers built without a recorder answer a snapshot with
    /// `enabled: false` rather than an error, so operators can probe
    /// whether tracing is on.
    Metrics(IdRequest),
}

impl Request {
    /// A visibility query (the common case).
    pub fn eval(id: u64, terrain: impl Into<String>, view: View) -> Request {
        Request::Eval(EvalRequest { id, terrain: terrain.into(), view })
    }

    /// The correlation id this request carries.
    pub fn id(&self) -> u64 {
        match self {
            Request::Eval(r) => r.id,
            Request::UploadTerrain(r) => r.id,
            Request::UploadChunk(r) => r.id,
            Request::RegisterTerrain(r) => r.id,
            Request::ListTerrains(r) => r.id,
            Request::TerrainInfo(r) => r.id,
            Request::DeleteTerrain(r) => r.id,
            Request::Stats(r) => r.id,
            Request::Metrics(r) => r.id,
        }
    }
}

impl From<EvalRequest> for Request {
    fn from(r: EvalRequest) -> Request {
        Request::Eval(r)
    }
}

/// The admin tag names — any other first key means the bare eval shape.
const TAGS: [&str; 8] = [
    "UploadTerrain",
    "UploadChunk",
    "RegisterTerrain",
    "ListTerrains",
    "TerrainInfo",
    "DeleteTerrain",
    "Stats",
    "Metrics",
];

impl serde::Serialize for Request {
    fn serialize(&self, s: &mut serde::ser::Serializer) {
        fn tagged<T: serde::Serialize>(s: &mut serde::ser::Serializer, tag: &str, body: &T) {
            s.begin_object();
            s.key(tag);
            body.serialize(s);
            s.end_value();
            s.end_object();
        }
        match self {
            // The legacy shape: a bare object, no tag.
            Request::Eval(r) => r.serialize(s),
            Request::UploadTerrain(r) => tagged(s, "UploadTerrain", r),
            Request::UploadChunk(r) => tagged(s, "UploadChunk", r),
            Request::RegisterTerrain(r) => tagged(s, "RegisterTerrain", r),
            Request::ListTerrains(r) => tagged(s, "ListTerrains", r),
            Request::TerrainInfo(r) => tagged(s, "TerrainInfo", r),
            Request::DeleteTerrain(r) => tagged(s, "DeleteTerrain", r),
            Request::Stats(r) => tagged(s, "Stats", r),
            Request::Metrics(r) => tagged(s, "Metrics", r),
        }
    }
}

impl serde::Deserialize for Request {
    fn deserialize(d: &mut serde::de::Deserializer<'_>) -> Result<Self, serde::de::Error> {
        d.expect(b'{')?;
        if d.eat(b'}') {
            return Err(d.error("empty object is not a request"));
        }
        // One forward pass: the first key decides the shape. Tag names
        // never collide with eval field names, so this is unambiguous.
        let first = d.parse_string()?;
        d.expect(b':')?;
        if TAGS.contains(&first.as_str()) {
            let req = match first.as_str() {
                "UploadTerrain" => Request::UploadTerrain(UploadBegin::deserialize(d)?),
                "UploadChunk" => Request::UploadChunk(UploadChunk::deserialize(d)?),
                "RegisterTerrain" => Request::RegisterTerrain(RegisterRequest::deserialize(d)?),
                "ListTerrains" => Request::ListTerrains(IdRequest::deserialize(d)?),
                "TerrainInfo" => Request::TerrainInfo(NameRequest::deserialize(d)?),
                "DeleteTerrain" => Request::DeleteTerrain(NameRequest::deserialize(d)?),
                "Stats" => Request::Stats(IdRequest::deserialize(d)?),
                _ => Request::Metrics(IdRequest::deserialize(d)?),
            };
            d.expect(b'}')?;
            return Ok(req);
        }
        // The bare eval object, with `first` (and its ':') consumed.
        let mut id = None;
        let mut terrain = None;
        let mut view = None;
        let mut key = first;
        loop {
            match key.as_str() {
                "id" => id = Some(u64::deserialize(d)?),
                "terrain" => terrain = Some(String::deserialize(d)?),
                "view" => view = Some(View::deserialize(d)?),
                _ => d.skip_value()?,
            }
            if !d.eat(b',') {
                break;
            }
            key = d.parse_string()?;
            d.expect(b':')?;
        }
        d.expect(b'}')?;
        Ok(Request::Eval(EvalRequest {
            id: id.ok_or_else(|| d.error("missing field `id`"))?,
            terrain: terrain.ok_or_else(|| d.error("missing field `terrain`"))?,
            view: view.ok_or_else(|| d.error("missing field `view`"))?,
        }))
    }
}

/// Why a request failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ErrorKind {
    /// The admission queue was full — the documented backpressure
    /// behavior: the server rejects immediately instead of buffering
    /// without bound. Retry later (ideally with jitter).
    Overloaded,
    /// The request line was not a valid [`Request`] document (or used
    /// the reserved id 0, or exceeded the server's line-length cap, or
    /// broke the upload chunking discipline). The echoed id is the
    /// client's where one could be salvaged from the line
    /// ([`salvage_id`]), otherwise the reserved 0.
    BadRequest,
    /// No terrain with the requested name is registered (statically or
    /// in the catalog).
    UnknownTerrain,
    /// The terrain exists but could not be prepared for evaluation
    /// (validation or tile-store failure).
    Prepare,
    /// The evaluation itself failed (malformed view, viewpoint inside
    /// the scene, …).
    Eval,
    /// A catalog operation failed: the server has no catalog configured,
    /// the payload failed validation, or the catalog I/O itself failed.
    Catalog,
    /// The server is shutting down.
    ShuttingDown,
}

/// A failed request: machine-readable kind plus human-readable detail.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WireError {
    /// What class of failure this is.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// A new error.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> WireError {
        WireError { kind, message: message.into() }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.kind, self.message)
    }
}

/// Best-effort recovery of the client id from a line that failed to
/// decode as a [`Request`].
///
/// Scans for a top-level `"id"` key with an unsigned-integer value,
/// respecting strings and nesting (an `"id"` inside the `view` object —
/// or a *value* `"id"` — is never matched). Admin requests nest their id
/// one level down inside the tag object, so a malformed admin line
/// usually salvages the reserved 0 — acceptable for a best-effort path
/// whose answer is always "this line was garbage". Returns the reserved
/// 0 when nothing can be salvaged, which is exactly what the server then
/// echoes in its [`ErrorKind::BadRequest`] response: an id the client
/// provably did not use for any well-formed request.
pub fn salvage_id(line: &str) -> u64 {
    let bytes = line.as_bytes();
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth = depth.saturating_sub(1),
            b'"' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'"' {
                    if bytes[j] == b'\\' {
                        j += 1;
                    }
                    j += 1;
                }
                if j >= bytes.len() {
                    return 0; // unterminated string
                }
                let key_depth = depth;
                let key = &bytes[start..j];
                i = j + 1;
                while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                    i += 1;
                }
                // Only keys are followed by ':'; values never are.
                if key_depth == 1 && key == b"id" && bytes.get(i) == Some(&b':') {
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                        i += 1;
                    }
                    let digits_start = i;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    return line[digits_start..i].parse().unwrap_or(0);
                }
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    0
}

/// Acknowledgement of a committed upload.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct UploadAck {
    /// The registered name.
    pub name: String,
    /// Lowercase-hex SHA-256 content address the bytes landed on.
    pub content: String,
    /// Payload size in bytes.
    pub bytes: u64,
    /// True when identical content already existed — the upload wrote
    /// zero new blob bytes and only a metadata record was appended.
    pub deduped: bool,
}

/// One snapshot of every server-side counter family, answered to
/// [`Request::Stats`]. Benches and operators read this instead of
/// scraping `/proc` or test-side state.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StatsSnapshot {
    /// Connection, admission, batch and outcome counters.
    pub serve: ServeStats,
    /// Prepared-scene cache counters.
    pub prepared: CacheStats,
    /// Catalog counters, when a catalog is configured.
    pub catalog: Option<CatalogStats>,
}

/// The data payload of a successful admin response. Eval responses
/// carry their [`Report`] in [`Response::report`] instead — the legacy
/// shape, unchanged.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Payload {
    /// A committed upload ([`Request::UploadTerrain`] final chunk).
    Upload(UploadAck),
    /// The full catalog listing ([`Request::ListTerrains`]).
    Terrains(Vec<TerrainInfo>),
    /// One catalog entry ([`Request::TerrainInfo`],
    /// [`Request::RegisterTerrain`]).
    Terrain(TerrainInfo),
    /// The entry a [`Request::DeleteTerrain`] removed.
    Deleted(TerrainInfo),
    /// The counter snapshot ([`Request::Stats`]).
    Stats(StatsSnapshot),
    /// The observability snapshot ([`Request::Metrics`]): histograms,
    /// event counters, recent and slow span trees. Boxed — it is by far
    /// the largest payload variant.
    Metrics(Box<MetricsSnapshot>),
}

/// The answer to one [`Request`]: the echoed id plus exactly one of
/// `report` (eval success), `payload` (admin success), or `error` —
/// except intermediate upload acknowledgements, which are all-`None`
/// ("chunk accepted, keep going").
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Response {
    /// The id of the request this answers (the reserved 0 for lines no
    /// client id could be salvaged from).
    pub id: u64,
    /// The evaluation result on eval success.
    pub report: Option<Report>,
    /// The data payload on admin success.
    pub payload: Option<Payload>,
    /// The failure on error.
    pub error: Option<WireError>,
}

impl Response {
    /// A successful eval response.
    pub fn ok(id: u64, report: Report) -> Response {
        Response { id, report: Some(report), payload: None, error: None }
    }

    /// A successful admin response.
    pub fn with_payload(id: u64, payload: Payload) -> Response {
        Response { id, report: None, payload: Some(payload), error: None }
    }

    /// A bare acknowledgement (intermediate upload chunks).
    pub fn ack(id: u64) -> Response {
        Response { id, report: None, payload: None, error: None }
    }

    /// A failure response.
    pub fn err(id: u64, error: WireError) -> Response {
        Response { id, report: None, payload: None, error: Some(error) }
    }

    /// Splits into `Ok(report)` / `Err(error)`. Admin responses (no
    /// report) error with [`ErrorKind::BadRequest`]; use
    /// [`Response::payload`] for those.
    pub fn into_result(self) -> Result<Report, WireError> {
        match (self.report, self.error) {
            (Some(report), _) => Ok(report),
            (None, Some(error)) => Err(error),
            (None, None) => Err(WireError::new(
                ErrorKind::BadRequest,
                "malformed response: neither report nor error",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsr_geometry::Point3;

    fn some_view() -> View {
        View::viewshed(Point3::new(40.0, 3.0, 9.0), vec![Point3::new(1.0, 2.0, 3.0)])
    }

    #[test]
    fn requests_roundtrip_as_single_lines() {
        let requests = vec![
            Request::eval(7, "alps", some_view()),
            Request::UploadTerrain(UploadBegin {
                id: 8,
                name: "alps".into(),
                format: TerrainFormat::TiledGrid { tile_size: 8, levels: 2 },
                uploader: "ops".into(),
                bytes: 4096,
            }),
            Request::UploadChunk(UploadChunk { id: 9, data: "AAECaGVsbG8=".into(), last: true }),
            Request::RegisterTerrain(RegisterRequest {
                id: 10,
                name: "alias".into(),
                content: "ab".repeat(32),
                format: TerrainFormat::GridBin,
                uploader: "ops".into(),
            }),
            Request::ListTerrains(IdRequest { id: 11 }),
            Request::TerrainInfo(NameRequest { id: 12, name: "alps".into() }),
            Request::DeleteTerrain(NameRequest { id: 13, name: "alps".into() }),
            Request::Stats(IdRequest { id: 14 }),
            Request::Metrics(IdRequest { id: 15 }),
        ];
        for (want_id, req) in (7u64..).zip(&requests) {
            let line = serde_json::to_string(req).unwrap();
            assert!(!line.contains('\n'), "wire documents must be single lines");
            let back: Request = serde_json::from_str(&line).unwrap();
            assert_eq!(&back, req);
            assert_eq!(back.id(), want_id);
        }
    }

    #[test]
    fn eval_requests_keep_the_legacy_bare_object_shape() {
        let line = serde_json::to_string(&Request::eval(7, "alps", some_view())).unwrap();
        // No tag wrapper: deployed clients' bare objects stay valid.
        assert!(line.starts_with(r#"{"id":7,"terrain":"alps","view":"#), "got {line}");
        // Field order from such clients is arbitrary; unknown keys skip.
        let view_json = serde_json::to_string(&some_view()).unwrap();
        let shuffled =
            format!(r#"{{"view":{view_json},"extra":[1,{{"a":2}}],"terrain":"t","id":3}}"#);
        let back: Request = serde_json::from_str(&shuffled).unwrap();
        assert_eq!(back.id(), 3);
        assert!(matches!(back, Request::Eval(ref e) if e.terrain == "t"));
    }

    #[test]
    fn malformed_requests_fail_to_decode() {
        for line in [
            "{}",
            r#"{"id":1,"terrain":"t"}"#,
            r#"{"NoSuchTag":{"id":1}}"#,
            r#"{"Stats":{"id":1},"extra":true}"#,
        ] {
            assert!(serde_json::from_str::<Request>(line).is_err(), "accepted {line}");
        }
    }

    #[test]
    fn salvage_id_recovers_top_level_ids_only() {
        // A view that fails to decode, with a recoverable client id.
        assert_eq!(salvage_id(r#"{"id":42,"terrain":"t","view":"broken"}"#), 42);
        assert_eq!(salvage_id(r#"{ "terrain" : "t" , "id" : 7 }"#), 7);
        // Nested "id" keys belong to the view, not the request.
        assert_eq!(salvage_id(r#"{"view":{"id":9},"terrain":"t"}"#), 0);
        // A string *value* "id" is not a key, even at depth 1.
        assert_eq!(salvage_id(r#"{"terrain":"id","view":{"id":3}}"#), 0);
        // Escapes inside strings do not desynchronize the scan.
        assert_eq!(salvage_id(r#"{"terrain":"a\"id\":5,","id":11}"#), 11);
        // Garbage, non-integer ids, and unterminated strings salvage 0.
        assert_eq!(salvage_id("this is not json"), 0);
        assert_eq!(salvage_id(r#"{"id":"seven"}"#), 0);
        assert_eq!(salvage_id(r#"{"id":-3}"#), 0);
        assert_eq!(salvage_id(r#"{"id"#), 0);
    }

    #[test]
    fn responses_split_into_results() {
        let err = Response::err(3, WireError::new(ErrorKind::Overloaded, "queue full"));
        let line = serde_json::to_string(&err).unwrap();
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(back.id, 3);
        assert_eq!(back.into_result().unwrap_err().kind, ErrorKind::Overloaded);
    }

    #[test]
    fn payload_responses_roundtrip() {
        let info = TerrainInfo {
            name: "alps".into(),
            content: "cd".repeat(32),
            format: TerrainFormat::TinObj,
            uploader: "ops".into(),
            registered_unix_ms: 1_700_000_000_000,
            bytes: 12345,
        };
        let resp = Response::with_payload(5, Payload::Terrains(vec![info.clone()]));
        let back: Response = serde_json::from_str(&serde_json::to_string(&resp).unwrap()).unwrap();
        assert_eq!(back.id, 5);
        match back.payload {
            Some(Payload::Terrains(list)) => assert_eq!(list, vec![info]),
            other => panic!("wrong payload: {other:?}"),
        }
        // Bare acknowledgements are all-None.
        let ack = Response::ack(6);
        let back: Response = serde_json::from_str(&serde_json::to_string(&ack).unwrap()).unwrap();
        assert!(back.report.is_none() && back.payload.is_none() && back.error.is_none());
    }

    #[test]
    fn metrics_payloads_roundtrip() {
        // A recorder-less server answers the disabled snapshot; it must
        // survive the wire like any other payload.
        let resp =
            Response::with_payload(8, Payload::Metrics(Box::new(MetricsSnapshot::disabled())));
        let back: Response = serde_json::from_str(&serde_json::to_string(&resp).unwrap()).unwrap();
        match back.payload {
            Some(Payload::Metrics(snap)) => assert!(!snap.enabled),
            other => panic!("wrong payload: {other:?}"),
        }
    }
}
