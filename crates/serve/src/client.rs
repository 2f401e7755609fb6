//! A typed client for the `mobilenet-serve/v2` protocol.
//!
//! [`Client`] owns one protocol connection and types the wire framing:
//! [`request`](Client::request) handles the `OK <n>`/`ERR` envelope,
//! [`hello`](Client::hello)/[`list`](Client::list)/
//! [`use_study`](Client::use_study) parse their bodies into
//! [`Hello`]/[`StudyInfo`], and [`subscribe`](Client::subscribe) turns
//! the connection into a [`Subscription`] — an iterator over decoded
//! [`DeltaEvent`]s that finishes at the stream's `end` event and hands
//! the connection back for further requests. The CLI `query`/`watch`
//! subcommands and the CI smoke are built on this type; nothing else in
//! the workspace parses protocol lines by hand.

use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;

use crate::query::PROTOCOL_VERSION;
use crate::registry::StudyInfo;
use crate::subscribe::{DeltaEvent, Topic};

/// Why a client call failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum ClientError {
    /// The transport failed (connect, read or write).
    Io(io::Error),
    /// The server answered `ERR <message>`.
    Server(String),
    /// The server's bytes did not parse as protocol framing.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// The server's `HELLO` handshake, parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct Hello {
    /// Protocol version token (e.g. `mobilenet-serve/v2`).
    pub version: String,
    /// Verbs the server understands.
    pub capabilities: Vec<String>,
    /// Studies currently registered.
    pub studies: usize,
}

/// One protocol connection with typed request/response parsing.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a serve endpoint (`host:port`).
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    fn read_line(&mut self) -> Result<String, ClientError> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        while line.ends_with(['\n', '\r']) {
            line.pop();
        }
        Ok(line)
    }

    /// Sends one raw request line and parses the `OK <n>`/`ERR` envelope
    /// into the body lines. The workhorse behind every typed call; also
    /// public for verbs without a dedicated wrapper (`RANK dl 5`, ...).
    pub fn request(&mut self, line: &str) -> Result<Vec<String>, ClientError> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        let head = self.read_line()?;
        if let Some(msg) = head.strip_prefix("ERR ") {
            return Err(ClientError::Server(msg.to_string()));
        }
        let n = head
            .strip_prefix("OK ")
            .and_then(|n| n.parse::<usize>().ok())
            .ok_or_else(|| ClientError::Protocol(format!("bad response head {head:?}")))?;
        let mut body = Vec::with_capacity(n);
        for _ in 0..n {
            body.push(self.read_line()?);
        }
        Ok(body)
    }

    /// `HELLO`: the version/capability handshake. Errors if the server
    /// speaks a different protocol version.
    pub fn hello(&mut self) -> Result<Hello, ClientError> {
        let body = self.request("HELLO")?;
        let version = body
            .first()
            .cloned()
            .ok_or_else(|| ClientError::Protocol("empty HELLO body".into()))?;
        if version != PROTOCOL_VERSION {
            return Err(ClientError::Protocol(format!(
                "server speaks {version}, this client speaks {PROTOCOL_VERSION}"
            )));
        }
        let mut capabilities = Vec::new();
        let mut studies = 0;
        for line in &body[1..] {
            if let Some(caps) = line.strip_prefix("capabilities ") {
                capabilities = caps.split_whitespace().map(str::to_string).collect();
            } else if let Some(n) = line.strip_prefix("studies ") {
                studies = n
                    .parse()
                    .map_err(|_| ClientError::Protocol(format!("bad study count {n:?}")))?;
            }
        }
        Ok(Hello {
            version,
            capabilities,
            studies,
        })
    }

    /// `LIST`: every registered study's description.
    pub fn list(&mut self) -> Result<Vec<StudyInfo>, ClientError> {
        self.request("LIST")?
            .iter()
            .map(|line| StudyInfo::parse(line).map_err(ClientError::Protocol))
            .collect()
    }

    /// `USE <study>`: selects a study for this connection.
    pub fn use_study(&mut self, name: &str) -> Result<StudyInfo, ClientError> {
        let body = self.request(&format!("USE {name}"))?;
        let line = body
            .first()
            .ok_or_else(|| ClientError::Protocol("empty USE body".into()))?;
        StudyInfo::parse(line).map_err(ClientError::Protocol)
    }

    /// `SUBSCRIBE <topics>`: switches the connection into event mode and
    /// returns the event iterator. Iterate it to completion (its `end`
    /// event) to get the connection back for further requests.
    pub fn subscribe(&mut self, topics: Vec<Topic>) -> Result<Subscription<'_>, ClientError> {
        if topics.is_empty() {
            return Err(ClientError::Protocol(
                "SUBSCRIBE needs at least one topic".into(),
            ));
        }
        let tokens: Vec<&str> = topics.iter().map(|t| t.token()).collect();
        self.request(&format!("SUBSCRIBE {}", tokens.join(",")))?;
        Ok(Subscription {
            client: self,
            done: false,
        })
    }

    /// `SHUTDOWN`: stops the server (and consumes this client — the
    /// server hangs up after acknowledging).
    pub fn shutdown(mut self) -> Result<(), ClientError> {
        self.request("SHUTDOWN")?;
        Ok(())
    }

    /// `QUIT`: closes the connection politely (no response expected).
    pub fn quit(mut self) -> Result<(), ClientError> {
        writeln!(self.writer, "QUIT")?;
        self.writer.flush()?;
        Ok(())
    }
}

/// An active `SUBSCRIBE` stream: iterates `(seq, event)` pairs until the
/// stream's `end` event (after which the underlying [`Client`] is usable
/// again). Seqs run from 0 without gaps: the server drops no event.
pub struct Subscription<'a> {
    client: &'a mut Client,
    done: bool,
}

impl Iterator for Subscription<'_> {
    type Item = Result<(u64, DeltaEvent), ClientError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let line = match self.client.read_line() {
            Ok(line) => line,
            Err(e) => {
                // Transport loss (e.g. server shutdown mid-stream) ends
                // the iteration after surfacing the error once.
                self.done = true;
                return Some(Err(e));
            }
        };
        let parsed = (|| {
            let rest = line
                .strip_prefix("EVENT ")
                .ok_or_else(|| ClientError::Protocol(format!("bad event line {line:?}")))?;
            let (seq, payload) = rest
                .split_once(' ')
                .ok_or_else(|| ClientError::Protocol(format!("bad event line {line:?}")))?;
            let seq = seq
                .parse::<u64>()
                .map_err(|_| ClientError::Protocol(format!("bad event seq {seq:?}")))?;
            let event = DeltaEvent::parse_wire(payload).map_err(ClientError::Protocol)?;
            Ok((seq, event))
        })();
        match parsed {
            Ok((seq, event)) => {
                if matches!(event, DeltaEvent::End { .. }) {
                    self.done = true;
                }
                Some(Ok((seq, event)))
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}
