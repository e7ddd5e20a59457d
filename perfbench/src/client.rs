//! One keep-alive HTTP/1.1 connection in a closed loop: send a request,
//! wait for its response, return status, body and round-trip time.

use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use hta_net::client::{read_response, request_bytes};

/// Longest a single response may take before the run fails.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

/// A keep-alive client connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// A response with its round-trip time.
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// Body text.
    pub body: String,
    /// Request written to response parsed, in ms.
    pub ms: f64,
}

impl Conn {
    /// Connect to `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self { writer, reader })
    }

    /// Send one body-less request and wait for its response.
    pub fn request(&mut self, method: &str, target: &str) -> io::Result<Reply> {
        let bytes = request_bytes(method, target, true);
        let start = Instant::now();
        self.writer.write_all(&bytes)?;
        let resp = read_response(&mut self.reader)?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        Ok(Reply {
            status: resp.status,
            body: resp.body_text(),
            ms,
        })
    }
}

/// The integers inside the first `"key":[...]` array of a JSON body.
pub fn int_array(body: &str, key: &str) -> Option<Vec<usize>> {
    let pat = format!("\"{key}\":[");
    let start = body.find(&pat)? + pat.len();
    let end = start + body[start..].find(']')?;
    body[start..end]
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.trim().parse().ok())
        .collect()
}

/// The number after the first `"key":` of a JSON body.
pub fn number(body: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = body.find(&pat)? + pat.len();
    let rest = &body[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Split an `/assign_batch` body into its per-worker objects.
pub fn batch_entries(body: &str) -> Vec<&str> {
    let Some(start) = body.find("\"assignments\":[") else {
        return Vec::new();
    };
    body[start..].split("{\"worker\":").skip(1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_assign_bodies() {
        let body = "{\"tasks\":[3,17,9],\"alpha\":0.250000,\"beta\":0.750000}";
        assert_eq!(int_array(body, "tasks"), Some(vec![3, 17, 9]));
        assert_eq!(number(body, "alpha"), Some(0.25));
        assert_eq!(int_array("{\"tasks\":[]}", "tasks"), Some(vec![]));
        let batch = "{\"assignments\":[{\"worker\":4,\"tasks\":[1,2],\"alpha\":0.5,\"beta\":0.5},{\"worker\":0,\"tasks\":[],\"alpha\":0.5,\"beta\":0.5}]}";
        let entries = batch_entries(batch);
        assert_eq!(entries.len(), 2);
        assert_eq!(int_array(entries[0], "tasks"), Some(vec![1, 2]));
        assert!(entries[1].starts_with('0'));
    }
}
