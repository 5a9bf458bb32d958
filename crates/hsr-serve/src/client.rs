//! A small blocking client for the wire protocol — what the tests, the
//! load generator, and the examples drive the server with.

use crate::protocol::{
    IdRequest, NameRequest, Payload, RegisterRequest, Request, Response, StatsSnapshot, UploadAck,
    UploadBegin, UploadChunk, WireError,
};
use hsr_catalog::{TerrainFormat, TerrainInfo};
use hsr_core::view::{Report, View};
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{TcpStream, ToSocketAddrs};

/// Raw bytes per upload chunk, sized so the base64-encoded line stays
/// well under the server's default `max_line_bytes`.
const UPLOAD_CHUNK_BYTES: usize = 48 * 1024;

/// Errors a client call can produce.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed or dropped.
    Io(std::io::Error),
    /// The server sent something that is not a [`Response`] line.
    Protocol(String),
    /// The server answered with an error response.
    Server(WireError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection: {e}"),
            ClientError::Protocol(what) => write!(f, "protocol: {what}"),
            ClientError::Server(e) => write!(f, "server: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A blocking connection to an [`hsr-serve`](crate) server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let writer = stream.try_clone()?;
        Ok(Client { reader: BufReader::new(stream), writer, next_id: 1 })
    }

    /// Sends one raw request line.
    pub fn send(&mut self, request: &Request) -> std::io::Result<()> {
        let mut line = serde_json::to_string(request).expect("requests serialize");
        line.push('\n');
        self.writer.write_all(line.as_bytes())
    }

    /// Reads one response line.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Protocol("server closed the connection".into()));
        }
        serde_json::from_str(line.trim()).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// One request, one response: evaluates `view` against the hosted
    /// terrain `terrain` and waits for the report.
    pub fn eval(&mut self, terrain: &str, view: &View) -> Result<Report, ClientError> {
        let id = self.fresh_id();
        self.send(&Request::eval(id, terrain, view.clone()))?;
        let response = self.recv()?;
        if response.id != id {
            return Err(ClientError::Protocol(format!(
                "response id {} does not answer request {id}",
                response.id
            )));
        }
        response.into_result().map_err(ClientError::Server)
    }

    /// Pipelines a batch: writes every request before reading any
    /// response, then matches responses back to request order by id.
    /// Pipelining is what queues compatible requests together for a
    /// server worker to coalesce; a strict request/response ping-pong
    /// never batches.
    pub fn eval_pipelined(
        &mut self,
        terrain: &str,
        views: &[View],
    ) -> Result<Vec<Result<Report, WireError>>, ClientError> {
        let ids: Vec<u64> = views.iter().map(|_| self.fresh_id()).collect();
        for (id, view) in ids.iter().zip(views) {
            self.send(&Request::eval(*id, terrain, view.clone()))?;
        }
        let mut by_id: std::collections::HashMap<u64, Result<Report, WireError>> =
            std::collections::HashMap::new();
        for _ in views {
            let response = self.recv()?;
            let id = response.id;
            if by_id.insert(id, response.into_result()).is_some() {
                // A silent overwrite here would drop a report on the
                // floor and surface later as a confusing "no response
                // for request N"; a duplicate id is a protocol breach
                // and is reported as exactly that.
                return Err(ClientError::Protocol(format!("duplicate response id {id}")));
            }
        }
        ids.iter()
            .map(|id| {
                by_id
                    .remove(id)
                    .ok_or_else(|| ClientError::Protocol(format!("no response for request {id}")))
            })
            .collect()
    }

    /// Reads the answer to `id`, surfacing server errors.
    fn expect_reply(&mut self, id: u64) -> Result<Response, ClientError> {
        let response = self.recv()?;
        if response.id != id {
            return Err(ClientError::Protocol(format!(
                "response id {} does not answer request {id}",
                response.id
            )));
        }
        if let Some(error) = response.error {
            return Err(ClientError::Server(error));
        }
        Ok(response)
    }

    /// Snapshots the server's counters ([`Request::Stats`]).
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        let id = self.fresh_id();
        self.send(&Request::Stats(IdRequest { id }))?;
        match self.expect_reply(id)?.payload {
            Some(Payload::Stats(snapshot)) => Ok(snapshot),
            other => Err(ClientError::Protocol(format!("expected stats payload, got {other:?}"))),
        }
    }

    /// Fetches the server's observability snapshot — latency
    /// histograms, event counters, recent and slow span trees. A server
    /// without a recorder answers with `enabled: false` rather than an
    /// error.
    pub fn metrics(&mut self) -> Result<hsr_obs::MetricsSnapshot, ClientError> {
        let id = self.fresh_id();
        self.send(&Request::Metrics(IdRequest { id }))?;
        match self.expect_reply(id)?.payload {
            Some(Payload::Metrics(snapshot)) => Ok(*snapshot),
            other => Err(ClientError::Protocol(format!("expected metrics payload, got {other:?}"))),
        }
    }

    /// Uploads `bytes` to the server's catalog as terrain `name`,
    /// chunked so every line respects the server's line-length cap.
    /// Ping-pong: each chunk is acknowledged before the next is sent.
    pub fn upload_terrain(
        &mut self,
        name: &str,
        format: TerrainFormat,
        uploader: &str,
        bytes: &[u8],
    ) -> Result<UploadAck, ClientError> {
        let id = self.fresh_id();
        self.send(&Request::UploadTerrain(UploadBegin {
            id,
            name: name.into(),
            format,
            uploader: uploader.into(),
            bytes: bytes.len() as u64,
        }))?;
        self.expect_reply(id)?;
        let mut sent = 0usize;
        loop {
            let end = (sent + UPLOAD_CHUNK_BYTES).min(bytes.len());
            let last = end == bytes.len();
            let id = self.fresh_id();
            self.send(&Request::UploadChunk(UploadChunk {
                id,
                data: crate::b64::encode(&bytes[sent..end]),
                last,
            }))?;
            let response = self.expect_reply(id)?;
            sent = end;
            if last {
                return match response.payload {
                    Some(Payload::Upload(ack)) => Ok(ack),
                    other => Err(ClientError::Protocol(format!(
                        "expected upload payload, got {other:?}"
                    ))),
                };
            }
        }
    }

    /// Binds `name` to content already in the server's catalog.
    pub fn register_terrain(
        &mut self,
        name: &str,
        content: &str,
        format: TerrainFormat,
        uploader: &str,
    ) -> Result<TerrainInfo, ClientError> {
        let id = self.fresh_id();
        self.send(&Request::RegisterTerrain(RegisterRequest {
            id,
            name: name.into(),
            content: content.into(),
            format,
            uploader: uploader.into(),
        }))?;
        match self.expect_reply(id)?.payload {
            Some(Payload::Terrain(info)) => Ok(info),
            other => Err(ClientError::Protocol(format!("expected terrain payload, got {other:?}"))),
        }
    }

    /// Lists every cataloged terrain.
    pub fn list_terrains(&mut self) -> Result<Vec<TerrainInfo>, ClientError> {
        let id = self.fresh_id();
        self.send(&Request::ListTerrains(IdRequest { id }))?;
        match self.expect_reply(id)?.payload {
            Some(Payload::Terrains(list)) => Ok(list),
            other => {
                Err(ClientError::Protocol(format!("expected terrains payload, got {other:?}")))
            }
        }
    }

    /// Looks up one cataloged terrain.
    pub fn terrain_info(&mut self, name: &str) -> Result<TerrainInfo, ClientError> {
        let id = self.fresh_id();
        self.send(&Request::TerrainInfo(NameRequest { id, name: name.into() }))?;
        match self.expect_reply(id)?.payload {
            Some(Payload::Terrain(info)) => Ok(info),
            other => Err(ClientError::Protocol(format!("expected terrain payload, got {other:?}"))),
        }
    }

    /// Unbinds `name` from the server's catalog; returns the removed
    /// entry.
    pub fn delete_terrain(&mut self, name: &str) -> Result<TerrainInfo, ClientError> {
        let id = self.fresh_id();
        self.send(&Request::DeleteTerrain(NameRequest { id, name: name.into() }))?;
        match self.expect_reply(id)?.payload {
            Some(Payload::Deleted(info)) => Ok(info),
            other => Err(ClientError::Protocol(format!("expected deleted payload, got {other:?}"))),
        }
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        // Skip the reserved 0 on wraparound so it can never collide
        // with the server's answers to unparseable lines.
        self.next_id = self.next_id.wrapping_add(1).max(1);
        assert_ne!(id, 0, "id 0 is reserved for the wire protocol");
        id
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn fresh_ids_never_emit_the_reserved_zero() {
        let stream = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap()
        };
        let mut client = super::Client {
            reader: std::io::BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
            next_id: u64::MAX,
        };
        assert_eq!(client.fresh_id(), u64::MAX);
        // Wraparound lands on 1, not the reserved 0.
        assert_eq!(client.fresh_id(), 1);
        assert_eq!(client.fresh_id(), 2);
    }
}
