//! Byte-stream transports for the serving protocol.
//!
//! The server and client speak over anything implementing
//! [`Transport`] (a blanket over `Read + Write + Send`): a TCP stream,
//! a Unix socket, or — for tests, benches, and the demo — the
//! in-memory [`duplex`] pipe, which gives the full concurrency
//! behaviour of a socket pair without touching the network stack.

use std::io::{self, Read, Write};
use std::sync::mpsc::{self, Receiver, Sender};

/// A bidirectional byte stream the serving layer can run over.
pub trait Transport: Read + Write + Send {}

impl<T: Read + Write + Send> Transport for T {}

/// One end of an in-memory duplex byte pipe.
///
/// Writes on one end become reads on the other, in order. Dropping an
/// end makes the peer's reads return EOF (`Ok(0)`) once buffered bytes
/// are drained, and its writes fail with `BrokenPipe` — the same
/// shutdown semantics a socket gives.
///
/// A write sends one copy of its buffer, as a socket copies into its
/// send buffer; a read copies out of the chunk received, from a cursor,
/// and drops the chunk once it is read to the end. A 15.6 MB key
/// therefore crosses the pipe with one copy on each side, and the
/// sent copy is freed as soon as the reader has taken it.
pub struct PipeEnd {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    /// The chunk being read, and how far.
    chunk: Vec<u8>,
    read: usize,
}

/// Creates a connected pair of in-memory duplex pipe ends.
pub fn duplex() -> (PipeEnd, PipeEnd) {
    let (a_tx, b_rx) = mpsc::channel();
    let (b_tx, a_rx) = mpsc::channel();
    let end = |tx, rx| PipeEnd { tx, rx, chunk: Vec::new(), read: 0 };
    (end(a_tx, a_rx), end(b_tx, b_rx))
}

impl Read for PipeEnd {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        if self.read == self.chunk.len() {
            // Writes never send an empty chunk, so a received one always
            // has bytes to read.
            match self.rx.recv() {
                Ok(chunk) => (self.chunk, self.read) = (chunk, 0),
                Err(_) => return Ok(0), // peer dropped: EOF
            }
        }
        let n = buf.len().min(self.chunk.len() - self.read);
        buf[..n].copy_from_slice(&self.chunk[self.read..self.read + n]);
        self.read += n;
        if self.read == self.chunk.len() {
            (self.chunk, self.read) = (Vec::new(), 0);
        }
        Ok(n)
    }
}

impl Write for PipeEnd {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        self.tx
            .send(buf.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer closed"))?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplex_carries_bytes_both_ways() {
        let (mut a, mut b) = duplex();
        a.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        b.write_all(b"pong").unwrap();
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn dropping_one_end_is_eof_for_the_other() {
        let (a, mut b) = duplex();
        drop(a);
        let mut buf = [0u8; 1];
        assert_eq!(b.read(&mut buf).unwrap(), 0);
        assert!(b.write_all(b"x").is_err());
    }

    #[test]
    fn reads_resume_across_chunk_boundaries() {
        let (mut a, mut b) = duplex();
        a.write_all(b"abc").unwrap();
        a.write_all(b"def").unwrap();
        let mut buf = [0u8; 6];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"abcdef");
    }
}
