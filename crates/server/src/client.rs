//! A small blocking client for the `kleislid` protocol — used by the
//! bench load generator, the tests, and the roundtrip example. One
//! [`Client`] owns one connection (one tenant); queries can be
//! pipelined with [`Client::send_query`] / [`Client::read_response`] or
//! issued call-and-response with [`Client::query`].

use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use kleisli_core::Value;

use crate::proto::{encode_request, read_frame, write_frame, Request, Response, ServedFrom};

/// The terminal outcome of one query. The server's admission and drain
/// rejections arrive as `Error` frames with well-known message
/// prefixes; the client surfaces them as their own variants so callers
/// can retry (`Busy`), fail over (`ShuttingDown`), or report
/// (`Error`) without string matching.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryReply {
    /// The query produced a value (and the server says where from).
    Value { value: Value, served: ServedFrom },
    /// Admission rejection (`busy:` prefix): this tenant's queue or the
    /// server's connection capacity is full; retrying later is safe.
    Busy(String),
    /// Drain rejection (`shutting-down:` prefix): the server is
    /// draining and takes no new queries.
    ShuttingDown(String),
    /// Any other server-side error (compile, evaluation, cancellation).
    Error(String),
}

impl QueryReply {
    /// The value, treating every server-side rejection or error as
    /// `Err` with the message wrapped in [`io::ErrorKind::Other`].
    pub fn into_value(self) -> io::Result<(Value, ServedFrom)> {
        match self {
            QueryReply::Value { value, served } => Ok((value, served)),
            QueryReply::Busy(message)
            | QueryReply::ShuttingDown(message)
            | QueryReply::Error(message) => Err(io::Error::other(message)),
        }
    }

    /// Classify a server error message by its rejection prefix.
    fn from_error(message: String) -> QueryReply {
        if message.starts_with("busy:") {
            QueryReply::Busy(message)
        } else if message.starts_with("shutting-down:") {
            QueryReply::ShuttingDown(message)
        } else {
            QueryReply::Error(message)
        }
    }
}

/// One connection to a `kleislid` server.
pub struct Client {
    stream: TcpStream,
    next_id: u64,
}

impl Client {
    /// Connect to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client { stream, next_id: 1 })
    }

    /// [`Client::connect`] bounded by `timeout` — a server that is not
    /// accepting fails fast instead of riding the OS connect timeout.
    pub fn connect_timeout(addr: &SocketAddr, timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        stream.set_nodelay(true).ok();
        Ok(Client { stream, next_id: 1 })
    }

    /// Bound every subsequent response read: a server that stops
    /// writing surfaces as a timed-out `Err` instead of a hung client.
    /// `None` restores blocking reads.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn send(&mut self, req: &Request) -> io::Result<()> {
        write_frame(&mut self.stream, &encode_request(req))
    }

    /// Fire a QUERY frame without waiting; returns the id to match the
    /// eventual response (see [`Client::read_response`]).
    pub fn send_query(&mut self, src: &str) -> io::Result<u64> {
        let id = self.fresh_id();
        self.send(&Request::Query {
            id,
            src: src.to_string(),
        })?;
        Ok(id)
    }

    /// Fire a CANCEL frame for an in-flight query id (the query's
    /// terminal response still arrives).
    pub fn cancel(&mut self, id: u64) -> io::Result<()> {
        self.send(&Request::Cancel { id })
    }

    /// Read the next response frame, whatever request it answers.
    pub fn read_response(&mut self) -> io::Result<Response> {
        match read_frame(&mut self.stream)? {
            Some(payload) => crate::proto::decode_response(&payload),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
        }
    }

    /// Read responses until the one answering `id` arrives (responses to
    /// other pipelined requests are discarded — use raw
    /// [`Client::read_response`] to multiplex).
    pub fn wait_reply(&mut self, id: u64) -> io::Result<QueryReply> {
        loop {
            match self.read_response()? {
                Response::Result {
                    id: got,
                    served,
                    value,
                } if got == id => {
                    return Ok(QueryReply::Value { value, served });
                }
                Response::Error { id: got, message } if got == id => {
                    return Ok(QueryReply::from_error(message));
                }
                _ => continue,
            }
        }
    }

    /// Call-and-response: send one query, block for its reply.
    pub fn query(&mut self, src: &str) -> io::Result<QueryReply> {
        let id = self.send_query(src)?;
        self.wait_reply(id)
    }

    /// Fetch the server's statistics JSON.
    pub fn stats(&mut self) -> io::Result<String> {
        let id = self.fresh_id();
        self.send(&Request::Stats { id })?;
        loop {
            if let Response::Stats { id: got, json } = self.read_response()? {
                if got == id {
                    return Ok(json);
                }
            }
        }
    }

    /// Flush every cached plan and result derived from `source` — the
    /// wire-level invalidation verb for a refreshed source. Returns
    /// `(plans, results)` dropped; a server-side error (for instance an
    /// unknown source name) comes back as `Err`.
    pub fn flush(&mut self, source: &str) -> io::Result<(u64, u64)> {
        let id = self.fresh_id();
        self.send(&Request::Flush {
            id,
            source: source.to_string(),
        })?;
        loop {
            match self.read_response()? {
                Response::Flushed {
                    id: got,
                    plans,
                    results,
                } if got == id => {
                    return Ok((plans, results));
                }
                Response::Error { id: got, message } if got == id => {
                    return Err(io::Error::other(message));
                }
                _ => continue,
            }
        }
    }
}
