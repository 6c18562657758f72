//! Blocking serving-protocol client.
//!
//! Wraps any [`Transport`] in the frame protocol: install a server
//! key once, then submit programs and fetch results. Each method is
//! one request/reply exchange; error replies come back as the typed
//! [`ServeError`] the server raised, so callers can react to
//! [`ServeError::QuotaExceeded`] with backoff rather than string
//! matching.

use pytfhe_netlist::Netlist;
use pytfhe_tfhe::{LweCiphertext, Params};
use pytfhe_wire::Format;

use crate::error::ServeError;
use crate::frame::{
    encode_fetch, encode_submit, expect_reply, install_key_header, read_frame, reply_to_error,
    write_frame, Reply, Status,
};
use crate::transport::Transport;

/// A client session over one transport.
pub struct ServeClient<T: Transport> {
    transport: T,
}

impl<T: Transport> ServeClient<T> {
    /// Wraps a connected transport.
    pub fn new(transport: T) -> Self {
        ServeClient { transport }
    }

    /// Sends one request whose payload is `parts`, in order, and reads
    /// its reply.
    fn exchange(&mut self, format: Format, parts: &[&[u8]]) -> Result<Reply, ServeError> {
        write_frame(&mut self.transport, format, parts)?;
        let frame = read_frame(&mut self.transport)?
            .ok_or_else(|| ServeError::Protocol("server closed the connection".into()))?;
        let reply = expect_reply(&frame)?;
        if reply.status == Status::Ok {
            Ok(reply)
        } else {
            Err(reply_to_error(&reply))
        }
    }

    /// Installs serialized server-key bytes, returning the fingerprint
    /// that names this tenant in every subsequent submit. The key is
    /// written to the transport straight from `key_bytes`.
    ///
    /// # Errors
    ///
    /// Transport failures, plus whatever typed error the server raised.
    pub fn install_key(&mut self, key_bytes: &[u8]) -> Result<u64, ServeError> {
        let section = install_key_header(key_bytes.len());
        let reply = self.exchange(Format::ServeInstallKey, &[&section, key_bytes])?;
        reply
            .fingerprint
            .ok_or_else(|| ServeError::Protocol("install reply lacks a fingerprint".into()))
    }

    /// Submits a program with its encrypted inputs under an installed
    /// key. Returns the job id; the server schedules asynchronously.
    ///
    /// # Errors
    ///
    /// [`ServeError::QuotaExceeded`] at the tenant quota,
    /// [`ServeError::UnknownKey`] for an uninstalled fingerprint, plus
    /// transport failures.
    pub fn submit(
        &mut self,
        fingerprint: u64,
        nl: &Netlist,
        inputs: &[LweCiphertext],
        params: &Params,
    ) -> Result<u64, ServeError> {
        let payload = encode_submit(fingerprint, nl, inputs, params);
        let reply = self.exchange(Format::ServeSubmit, &[&payload])?;
        reply.job.ok_or_else(|| ServeError::Protocol("submit reply lacks a job id".into()))
    }

    /// Blocks until the job finishes and returns its output
    /// ciphertexts.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`] for a bad id, plus transport
    /// failures.
    pub fn fetch(&mut self, job: u64) -> Result<Vec<LweCiphertext>, ServeError> {
        let reply = self.exchange(Format::ServeFetch, &[&encode_fetch(job)])?;
        reply.outputs.ok_or_else(|| ServeError::Protocol("fetch reply lacks outputs".into()))
    }

    /// Runs a program synchronously: submit then fetch.
    ///
    /// # Errors
    ///
    /// Everything [`ServeClient::submit`] and [`ServeClient::fetch`]
    /// can raise.
    pub fn run(
        &mut self,
        fingerprint: u64,
        nl: &Netlist,
        inputs: &[LweCiphertext],
        params: &Params,
    ) -> Result<Vec<LweCiphertext>, ServeError> {
        let job = self.submit(fingerprint, nl, inputs, params)?;
        self.fetch(job)
    }

    /// Ends the session cleanly, waiting for the server's
    /// acknowledgement.
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn close(mut self) -> Result<(), ServeError> {
        self.exchange(Format::ServeClose, &[])?;
        Ok(())
    }
}
